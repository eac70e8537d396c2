// Backend selection: compiled-in tables, CPUID capability checks, QSV_SIMD
// environment override, and the process-wide active backend.
#include <atomic>
#include <cstdlib>

#include "common/error.hpp"
#include "sv/simd/backends.hpp"

namespace qsv::simd {
namespace {

/// True if the host CPU can execute the backend's instructions.
bool cpu_supports(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return true;
    case Backend::kAvx2:
      // Its matrix2 is a chain of FMA instructions.
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2") && cpu_has_fma();
#else
      return false;
#endif
    case Backend::kAvx512:
      // It composes AVX2 entries.
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx512f") && cpu_supports(Backend::kAvx2);
#else
      return false;
#endif
  }
  return false;
}

/// -1 while unresolved; otherwise the Backend value.
std::atomic<int> g_active{-1};
std::atomic<const char*> g_origin{"auto"};

Backend resolve() {
  if (const char* env = std::getenv("QSV_SIMD");
      env != nullptr && *env != '\0' && std::string(env) != "auto") {
    const std::optional<Backend> b = backend_from_name(env);
    QSV_REQUIRE(b.has_value(), std::string("QSV_SIMD: unknown backend '") +
                                   env + "' (use scalar|avx2|avx512|auto)");
    QSV_REQUIRE(backend_supported(*b),
                std::string("QSV_SIMD: backend '") + env +
                    "' is not available on this host (compiled: " +
                    (backend_compiled(*b) ? "yes" : "no") + ")");
    g_origin.store("env", std::memory_order_relaxed);
    return *b;
  }
  g_origin.store("auto", std::memory_order_relaxed);
  return best_backend();
}

}  // namespace

bool cpu_has_fma() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("fma") && __builtin_cpu_supports("avx");
#else
  return false;
#endif
}

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kAvx512:
      return "avx512";
  }
  return "?";
}

std::optional<Backend> backend_from_name(const std::string& s) {
  if (s == "scalar") return Backend::kScalar;
  if (s == "avx2") return Backend::kAvx2;
  if (s == "avx512") return Backend::kAvx512;
  return std::nullopt;
}

bool backend_compiled(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return true;
    case Backend::kAvx2:
#if QSV_SIMD_HAVE_AVX2
      return true;
#else
      return false;
#endif
    case Backend::kAvx512:
#if QSV_SIMD_HAVE_AVX512
      return true;
#else
      return false;
#endif
  }
  return false;
}

bool backend_supported(Backend b) {
  return backend_compiled(b) && cpu_supports(b);
}

Backend best_backend() {
  if (backend_supported(Backend::kAvx512)) {
    return Backend::kAvx512;
  }
  if (backend_supported(Backend::kAvx2)) {
    return Backend::kAvx2;
  }
  return Backend::kScalar;
}

Backend active_backend() {
  int b = g_active.load(std::memory_order_acquire);
  if (b < 0) {
    const Backend r = resolve();
    g_active.store(static_cast<int>(r), std::memory_order_release);
    return r;
  }
  return static_cast<Backend>(b);
}

const char* active_backend_origin() {
  (void)active_backend();  // force resolution so origin is meaningful
  return g_origin.load(std::memory_order_relaxed);
}

void set_active_backend(Backend b) {
  QSV_REQUIRE(backend_supported(b), std::string("SIMD backend '") +
                                        backend_name(b) +
                                        "' is not available on this host");
  g_active.store(static_cast<int>(b), std::memory_order_release);
  g_origin.store("override", std::memory_order_relaxed);
}

const KernelOps& ops_for(Backend b) {
  QSV_REQUIRE(backend_supported(b), std::string("SIMD backend '") +
                                        backend_name(b) +
                                        "' is not available on this host");
  switch (b) {
    case Backend::kScalar:
      return scalar_ops();
    case Backend::kAvx2:
#if QSV_SIMD_HAVE_AVX2
      return avx2_ops();
#else
      break;
#endif
    case Backend::kAvx512:
#if QSV_SIMD_HAVE_AVX512
      return avx512_ops();
#else
      break;
#endif
  }
  return scalar_ops();  // unreachable: backend_supported gated above
}

const KernelOps& ops() { return ops_for(active_backend()); }

}  // namespace qsv::simd
