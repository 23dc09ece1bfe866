#include "heuristics/fastpath/fastpath.hpp"

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <string>

namespace hcsched::heuristics::fastpath {

namespace {

std::atomic<bool>& switch_flag() noexcept {
  // Read once: the environment is a process-start default, not a live knob
  // (ScopedMode is the runtime override).
  static std::atomic<bool> flag{
      env_value_enables(std::getenv("HCSCHED_FASTPATH"))};
  return flag;
}

}  // namespace

bool env_value_enables(const char* value) noexcept {
  if (value == nullptr) return true;
  std::string lowered;
  for (const char* p = value; *p != '\0'; ++p) {
    lowered.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(*p))));
  }
  return lowered != "0" && lowered != "off" && lowered != "false" &&
         lowered != "no";
}

bool enabled() noexcept {
  return switch_flag().load(std::memory_order_relaxed);
}

ScopedMode::ScopedMode(bool on) noexcept
    : previous_(switch_flag().exchange(on, std::memory_order_relaxed)) {}

ScopedMode::~ScopedMode() {
  switch_flag().store(previous_, std::memory_order_relaxed);
}

}  // namespace hcsched::heuristics::fastpath
