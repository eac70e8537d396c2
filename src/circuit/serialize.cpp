#include "circuit/serialize.hpp"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <map>
#include <sstream>

#include "common/bits.hpp"
#include "common/error.hpp"

namespace qsv {
namespace {

/// Lower-case mnemonic for each kind (the parser accepts exactly these).
const char* mnemonic(GateKind kind) {
  switch (kind) {
    case GateKind::kH: return "h";
    case GateKind::kX: return "x";
    case GateKind::kY: return "y";
    case GateKind::kZ: return "z";
    case GateKind::kS: return "s";
    case GateKind::kT: return "t";
    case GateKind::kPhase: return "p";
    case GateKind::kRx: return "rx";
    case GateKind::kRy: return "ry";
    case GateKind::kRz: return "rz";
    case GateKind::kCx: return "cx";
    case GateKind::kCz: return "cz";
    case GateKind::kCPhase: return "cp";
    case GateKind::kSwap: return "swap";
    case GateKind::kFusedPhase: return "fphase";
    case GateKind::kUnitary1: return "u1q";
    case GateKind::kUnitary2: return "u2q";
  }
  return "?";
}

std::string num(real_t v) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<real_t>::max_digits10) << v;
  return os.str();
}

/// Refuses line `line` of the input: the message names the input line, not
/// a source location.
[[noreturn]] void fail(int line, const std::string& what) {
  throw Error("circuit parse error at line " + std::to_string(line) + ": " +
              what);
}

/// Hard cap on parsed gates: a hostile payload cannot make the parser
/// allocate without bound, and anything near this is absurd for a text
/// circuit anyway (the serve front end caps payloads far below it).
constexpr std::size_t kMaxCircuitGates = std::size_t{1} << 22;  // ~4M

}  // namespace

void write_circuit(std::ostream& os, const Circuit& c) {
  os << "qubits " << c.num_qubits() << '\n';
  if (!c.name().empty()) {
    os << "name " << c.name() << '\n';
  }
  for (const Gate& g : c) {
    // Gates with controls beyond their canonical arity are written with a
    // "ctrl" prefix listing the extra controls.
    std::vector<qubit_t> extra_controls;
    std::size_t canonical_controls = 0;
    switch (g.kind) {
      case GateKind::kCx:
      case GateKind::kCz:
      case GateKind::kCPhase:
        canonical_controls = 1;
        break;
      case GateKind::kFusedPhase:
        canonical_controls = g.controls.size();
        break;
      default:
        canonical_controls = 0;
        break;
    }
    for (std::size_t i = canonical_controls; i < g.controls.size(); ++i) {
      extra_controls.push_back(g.controls[i]);
    }
    if (!extra_controls.empty()) {
      os << "ctrl";
      for (qubit_t q : extra_controls) {
        os << ' ' << q;
      }
      os << " | ";
    }

    os << mnemonic(g.kind);
    switch (g.kind) {
      case GateKind::kH:
      case GateKind::kX:
      case GateKind::kY:
      case GateKind::kZ:
      case GateKind::kS:
      case GateKind::kT:
        os << ' ' << g.targets[0];
        break;
      case GateKind::kPhase:
      case GateKind::kRx:
      case GateKind::kRy:
      case GateKind::kRz:
        os << ' ' << g.targets[0] << ' ' << num(g.params[0]);
        break;
      case GateKind::kCx:
      case GateKind::kCz:
        os << ' ' << g.controls[0] << ' ' << g.targets[0];
        break;
      case GateKind::kCPhase:
        os << ' ' << g.controls[0] << ' ' << g.targets[0] << ' '
           << num(g.params[0]);
        break;
      case GateKind::kSwap:
        os << ' ' << g.targets[0] << ' ' << g.targets[1];
        break;
      case GateKind::kFusedPhase: {
        os << ' ' << g.targets[0] << " |";
        for (std::size_t i = 0; i < g.controls.size(); ++i) {
          os << ' ' << g.controls[i] << ':' << num(g.params[i]);
        }
        break;
      }
      case GateKind::kUnitary1: {
        os << ' ' << g.targets[0] << " |";
        for (real_t v : g.params) {
          os << ' ' << num(v);
        }
        break;
      }
      case GateKind::kUnitary2: {
        os << ' ' << g.targets[0] << ' ' << g.targets[1] << " |";
        for (real_t v : g.params) {
          os << ' ' << num(v);
        }
        break;
      }
    }
    os << '\n';
  }
}

std::string circuit_to_text(const Circuit& c) {
  std::ostringstream os;
  write_circuit(os, c);
  return os.str();
}

Circuit read_circuit(std::istream& is) {
  std::string text((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  return parse_circuit(text);
}

Circuit parse_circuit(const std::string& text) {
  std::istringstream in(text);
  std::string raw;
  int line_no = 0;

  int num_qubits = -1;
  std::string name;
  std::vector<Gate> gates;

  while (std::getline(in, raw)) {
    ++line_no;
    // Strip comments and whitespace-only lines.
    const auto hash = raw.find('#');
    std::string line = hash == std::string::npos ? raw : raw.substr(0, hash);
    std::istringstream ls(line);
    std::string op;
    if (!(ls >> op)) {
      continue;
    }

    if (op == "qubits") {
      int n = 0;
      if (!(ls >> n) || n < 1 || n > 62) {
        fail(line_no, "bad qubit count");
      }
      if (num_qubits != -1) {
        fail(line_no, "duplicate qubits header");
      }
      num_qubits = n;
      continue;
    }
    if (op == "name") {
      ls >> name;
      continue;
    }
    if (num_qubits < 0) {
      fail(line_no, "instruction before the 'qubits' header");
    }

    // Every qubit the line names must lie in the register and appear once,
    // so a bad operand is refused here, naming its line, before a gate
    // builder or Circuit::add can see it.
    amp_index named = 0;  // one bit per qubit the line has named so far
    auto operand = [&](qubit_t q) {
      if (q < 0 || q >= num_qubits) {
        fail(line_no, "qubit " + std::to_string(q) + " outside the " +
                          std::to_string(num_qubits) + "-qubit register");
      }
      if (bits::bit(named, q) != 0) {
        fail(line_no, "qubit " + std::to_string(q) + " named twice");
      }
      named = bits::set_bit(named, q);
      return q;
    };

    // Optional extra-control prefix: "ctrl a b ... | <gate ...>".
    std::vector<qubit_t> extra_controls;
    if (op == "ctrl") {
      std::string tok;
      bool saw_bar = false;
      while (ls >> tok) {
        if (tok == "|") {
          saw_bar = true;
          break;
        }
        qubit_t q = 0;
        try {
          q = static_cast<qubit_t>(std::stoi(tok));
        } catch (const std::exception&) {
          fail(line_no, "bad control qubit: " + tok);
        }
        extra_controls.push_back(operand(q));
      }
      if (!saw_bar || extra_controls.empty() || !(ls >> op)) {
        fail(line_no, "malformed ctrl prefix");
      }
    }

    auto read_int = [&](const char* what) {
      qubit_t q = 0;
      if (!(ls >> q)) {
        fail(line_no, std::string("missing ") + what);
      }
      return operand(q);
    };
    auto read_real = [&](const char* what) {
      real_t v = 0;
      if (!(ls >> v)) {
        fail(line_no, std::string("missing ") + what);
      }
      // "inf"/"nan" parse cleanly but poison every amplitude they touch —
      // a hostile payload must not turn the statevector into NaNs.
      if (!std::isfinite(v)) {
        fail(line_no, std::string("non-finite ") + what);
      }
      return v;
    };

    Gate g;
    if (op == "h") {
      g = make_h(read_int("target"));
    } else if (op == "x") {
      g = make_x(read_int("target"));
    } else if (op == "y") {
      g = make_y(read_int("target"));
    } else if (op == "z") {
      g = make_z(read_int("target"));
    } else if (op == "s") {
      g = make_s(read_int("target"));
    } else if (op == "t") {
      g = make_t_gate(read_int("target"));
    } else if (op == "p") {
      const qubit_t t = read_int("target");
      g = make_phase(t, read_real("angle"));
    } else if (op == "rx") {
      const qubit_t t = read_int("target");
      g = make_rx(t, read_real("angle"));
    } else if (op == "ry") {
      const qubit_t t = read_int("target");
      g = make_ry(t, read_real("angle"));
    } else if (op == "rz") {
      const qubit_t t = read_int("target");
      g = make_rz(t, read_real("angle"));
    } else if (op == "cx") {
      const qubit_t c = read_int("control");
      g = make_cx(c, read_int("target"));
    } else if (op == "cz") {
      const qubit_t c = read_int("control");
      g = make_cz(c, read_int("target"));
    } else if (op == "cp") {
      const qubit_t c = read_int("control");
      const qubit_t t = read_int("target");
      g = make_cphase(c, t, read_real("angle"));
    } else if (op == "swap") {
      const qubit_t a = read_int("target a");
      g = make_swap(a, read_int("target b"));
    } else if (op == "fphase") {
      const qubit_t t = read_int("target");
      std::string bar;
      if (!(ls >> bar) || bar != "|") {
        fail(line_no, "fphase needs '| control:angle ...'");
      }
      std::vector<qubit_t> controls;
      std::vector<real_t> angles;
      std::string tok;
      while (ls >> tok) {
        const auto colon = tok.find(':');
        if (colon == std::string::npos) {
          fail(line_no, "bad fphase factor: " + tok);
        }
        qubit_t q = 0;
        try {
          q = static_cast<qubit_t>(std::stoi(tok.substr(0, colon)));
          angles.push_back(std::stod(tok.substr(colon + 1)));
        } catch (const std::exception&) {
          fail(line_no, "bad fphase factor: " + tok);
        }
        controls.push_back(operand(q));
        if (!std::isfinite(angles.back())) {
          fail(line_no, "non-finite fphase angle: " + tok);
        }
      }
      g = make_fused_phase(t, std::move(controls), std::move(angles));
    } else if (op == "u2q") {
      const qubit_t t0 = read_int("target 0");
      const qubit_t t1 = read_int("target 1");
      std::string bar;
      if (!(ls >> bar) || bar != "|") {
        fail(line_no, "u2q needs '| 32 reals'");
      }
      std::vector<real_t> vals;
      real_t v = 0;
      while (ls >> v) {
        if (!std::isfinite(v)) {
          fail(line_no, "non-finite u2q entry");
        }
        vals.push_back(v);
      }
      if (vals.size() != 32) {
        fail(line_no, "u2q needs exactly 32 reals");
      }
      g = make_unitary2(t0, t1, vals);
    } else if (op == "u1q") {
      const qubit_t t = read_int("target");
      std::string bar;
      if (!(ls >> bar) || bar != "|") {
        fail(line_no, "u1q needs '| 8 reals'");
      }
      std::vector<real_t> vals;
      real_t v = 0;
      while (ls >> v) {
        if (!std::isfinite(v)) {
          fail(line_no, "non-finite u1q entry");
        }
        vals.push_back(v);
      }
      if (vals.size() != 8) {
        fail(line_no, "u1q needs exactly 8 reals");
      }
      g = make_unitary1(t, vals);
    } else {
      fail(line_no, "unknown instruction: " + op);
    }

    for (qubit_t c : extra_controls) {
      g.controls.push_back(c);
    }
    if (gates.size() >= kMaxCircuitGates) {
      fail(line_no, "circuit exceeds the gate-count cap (" +
                        std::to_string(kMaxCircuitGates) + " gates)");
    }
    gates.push_back(std::move(g));
  }

  if (num_qubits < 0) {
    fail(line_no, "missing 'qubits' header");
  }
  Circuit c(num_qubits, name);
  for (Gate& g : gates) {
    c.add(std::move(g));  // re-validates operands against the register
  }
  return c;
}

void save_circuit(const std::string& path, const Circuit& c) {
  std::ofstream out(path);
  QSV_REQUIRE(out.good(), "cannot open circuit file for writing: " + path);
  write_circuit(out, c);
}

Circuit load_circuit(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    throw Error("cannot open circuit file: " + path);
  }
  return read_circuit(in);
}

}  // namespace qsv
