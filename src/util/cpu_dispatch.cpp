#include "util/cpu_dispatch.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace mda::util {

namespace {

bool detect_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

bool detect_avx512() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

bool env_force_scalar() {
  const char* v = std::getenv("MDA_BATCH_FORCE_SCALAR");
  return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

std::atomic<bool>& force_scalar_flag() {
  static std::atomic<bool> flag{env_force_scalar()};
  return flag;
}

}  // namespace

bool avx2_available() {
  static const bool available = detect_avx2();
  return available;
}

bool avx512_available() {
  static const bool available = detect_avx512();
  return available;
}

void set_force_scalar(bool on) {
  force_scalar_flag().store(on, std::memory_order_relaxed);
}

bool force_scalar() {
  return force_scalar_flag().load(std::memory_order_relaxed);
}

bool use_avx2() { return avx2_available() && !force_scalar(); }

bool use_avx512() { return avx512_available() && !force_scalar(); }

}  // namespace mda::util
