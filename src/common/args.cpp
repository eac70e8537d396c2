#include "common/args.hpp"

#include <cerrno>
#include <cstdlib>

#include "common/error.hpp"

namespace qsv {

std::int64_t parse_int(const std::string& text, const std::string& what,
                       std::int64_t lo, std::int64_t hi) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || end == nullptr || *end != '\0') {
    throw ArgError(what + " needs an integer, got '" + text + "'");
  }
  if (errno == ERANGE || v < lo || v > hi) {
    throw ArgError(what + " must be in [" + std::to_string(lo) + ", " +
                   std::to_string(hi) + "], got " + text);
  }
  return v;
}

ArgParser& ArgParser::flag(const std::string& name) {
  known_flags_.insert(name);
  return *this;
}

ArgParser& ArgParser::option(const std::string& name) {
  known_options_.insert(name);
  return *this;
}

void ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positionals_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::optional<std::string> inline_value;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      inline_value = name.substr(eq + 1);
      name = name.substr(0, eq);
    }

    if (known_flags_.count(name) != 0) {
      if (inline_value) {
        throw ArgError("flag --" + name + " takes no value");
      }
      seen_flags_.insert(name);
      continue;
    }
    if (known_options_.count(name) == 0) {
      throw ArgError("unknown option --" + name);
    }
    if (inline_value) {
      values_[name] = *inline_value;
    } else {
      if (i + 1 >= argc) {
        throw ArgError("option --" + name + " needs a value");
      }
      values_[name] = argv[++i];
    }
  }
}

bool ArgParser::has(const std::string& name) const {
  return seen_flags_.count(name) != 0 || values_.count(name) != 0;
}

std::optional<std::string> ArgParser::value(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::string ArgParser::value_or(const std::string& name,
                                const std::string& def) const {
  return value(name).value_or(def);
}

int ArgParser::int_or(const std::string& name, int def) const {
  const auto v = value(name);
  if (!v) {
    return def;
  }
  return static_cast<int>(parse_int(*v, "option --" + name,
                                    std::numeric_limits<int>::min(),
                                    std::numeric_limits<int>::max()));
}

double ArgParser::double_or(const std::string& name, double def) const {
  const auto v = value(name);
  if (!v) {
    return def;
  }
  char* end = nullptr;
  const double parsed = std::strtod(v->c_str(), &end);
  if (v->empty() || end == nullptr || *end != '\0') {
    throw ArgError("option --" + name + " needs a number, got '" + *v + "'");
  }
  return parsed;
}

}  // namespace qsv
