// Runtime CPU feature detection for the hand-dispatched kernels.
//
// Two hot paths pick an instruction-set-specific implementation at runtime:
// the CRC-32C used by the spool/extent frame codec (src/base/crc32c.cc,
// SSE4.2 crc32 instruction) and the columnar scan kernels
// (src/analysis/scan_kernels.cc, AVX2 predicate filters). Both share
// this one probe so "which path ran" is decided -- and overridable -- in one
// place: NTRACE_NO_SIMD=1 in the environment forces the portable fallbacks,
// which is how the parity tests pin the portable and vector paths equal on
// the same machine.
//
// The probes are memoized function-local statics; __builtin_cpu_supports is
// a couple of cached-CPUID bit tests, but callers on per-batch paths should
// still hoist the result out of their loops.

#ifndef SRC_BASE_CPU_H_
#define SRC_BASE_CPU_H_

#include <cstdlib>

namespace ntrace {

// True when NTRACE_NO_SIMD is set to anything but "" or "0": every
// dispatched kernel must then take its portable path.
inline bool CpuSimdDisabledByEnv() {
  static const bool disabled = [] {
    const char* v = std::getenv("NTRACE_NO_SIMD");
    return v != nullptr && *v != '\0' && !(v[0] == '0' && v[1] == '\0');
  }();
  return disabled;
}

inline bool CpuHasSse42() {
#if defined(__x86_64__) || defined(__i386__)
  static const bool has = __builtin_cpu_supports("sse4.2") != 0;
  return has && !CpuSimdDisabledByEnv();
#else
  return false;
#endif
}

inline bool CpuHasAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has && !CpuSimdDisabledByEnv();
#else
  return false;
#endif
}

}  // namespace ntrace

#endif  // SRC_BASE_CPU_H_
