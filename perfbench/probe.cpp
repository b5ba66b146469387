// The machine-speed probe. Its kernels do fixed work of the kinds the
// simulator does (scattered memory updates, sorting, a binary-heap event
// queue, hash-table probes) on buffers allocated once, so nothing the
// simulator leaves in the allocator changes their cost.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

#include "perfbench.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kGatherWords = std::size_t{1} << 22;  // 32 MiB
constexpr std::size_t kSortWords = std::size_t{1} << 16;
constexpr std::size_t kHeapEntries = std::size_t{1} << 16;
constexpr std::size_t kHashSlots = std::size_t{1} << 20;  // 16 MiB
constexpr std::uint64_t kEmpty = 0;

/// One pass's host time on the machine the reference was taken on (see
/// NOTES.md). It only sets the scale of the corrected times.
constexpr double kReferencePass_s = 0.12;

std::uint64_t xorshift(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

}  // namespace

SpeedProbe::SpeedProbe()
    : gather_(kGatherWords, 1),
      sort_(kSortWords),
      heap_(kHeapEntries),
      keys_(kHashSlots),
      values_(kHashSlots) {
  (void)sample();  // first touch of every buffer, untimed
}

double SpeedProbe::sample() {
  const auto t0 = Clock::now();
  std::uint64_t s = 0x9E3779B97F4A7C15ULL;
  // Scattered read-modify-writes over 32 MiB: cache and memory latency
  // with many misses in flight.
  {
    std::uint64_t acc = 0;
    for (int i = 0; i < 2'500'000; ++i) {
      std::uint64_t& w = gather_[xorshift(s) & (kGatherWords - 1)];
      acc += w;
      w = acc;
    }
    sink_ += acc;
  }
  // Sorting fresh random keys: branch mispredictions and streaming access.
  {
    for (int r = 0; r < 6; ++r) {
      for (auto& x : sort_) x = static_cast<std::uint32_t>(xorshift(s));
      std::sort(sort_.begin(), sort_.end());
    }
    sink_ += sort_[kSortWords / 2];
  }
  // An event queue: pop the earliest event, push one later.
  {
    double now = 0.0;
    for (std::size_t i = 0; i < kHeapEntries; ++i) {
      heap_[i] = {static_cast<double>(xorshift(s) >> 11) * 0x1p-53,
                  static_cast<std::uint32_t>(i)};
    }
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
    for (int i = 0; i < 160'000; ++i) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      now = heap_.back().first;
      heap_.back().first =
          now + static_cast<double>(xorshift(s) >> 11) * 0x1p-53;
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    }
    sink_ += static_cast<std::uint64_t>(now);
  }
  // Open-addressing hash table over 16 MiB: inserts, then lookups of
  // which half miss.
  {
    std::memset(keys_.data(), 0, keys_.size() * sizeof(std::uint64_t));
    auto slot = [&](std::uint64_t key) {
      std::size_t h = (key * 0xFF51AFD7ED558CCDULL) >> 44;
      while (keys_[h] != kEmpty && keys_[h] != key) {
        h = (h + 1) & (kHashSlots - 1);
      }
      return h;
    };
    std::uint64_t k = 1;
    for (int i = 0; i < 700'000; ++i) {
      const std::uint64_t key = (xorshift(k) & 0xFFFFF) | 1;
      const std::size_t h = slot(key);
      keys_[h] = key;
      values_[h] += static_cast<std::uint64_t>(i);
    }
    std::uint64_t acc = 0;
    for (int i = 0; i < 700'000; ++i) {
      const std::size_t h = slot(xorshift(s) & 0x1FFFFF);
      acc += keys_[h] == kEmpty ? 1 : values_[h];
    }
    sink_ += acc;
  }
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double SpeedProbe::factor(const std::vector<double>& passes) {
  return kReferencePass_s / mean(passes);
}

}  // namespace perfbench
