#include "common/rng.hpp"

#include <algorithm>
#include <istream>
#include <ostream>

namespace dh {

namespace {

constexpr std::uint64_t kMatrixA = 0xB5026F5AA96619E9ull;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kSeedMultiplier = 6364136223846793005ull;

/// The twist of one word: `hi` supplies the upper 33 bits, `lo` the lower
/// 31. matrix_a is selected by mask, not by branch: the low bit is random,
/// so a branch would mispredict half the time.
constexpr std::uint64_t twist_word(std::uint64_t hi, std::uint64_t lo) {
  const std::uint64_t y = (hi & kUpperMask) | (lo & ~kUpperMask);
  return (y >> 1) ^ ((std::uint64_t{0} - (y & 1u)) & kMatrixA);
}

}  // namespace

Mt19937_64::Mt19937_64(result_type seed) {
  x_[0] = seed;
  seeded_ = 1;
  // Output k of the first block reads x_[k], x_[k + 1] and x_[k + kM].
  seed_to(kFirstChunk + kM);
}

void Mt19937_64::seed_to(std::size_t end) {
  for (std::size_t i = seeded_; i < end; ++i) {
    const std::uint64_t prev = x_[i - 1];
    x_[i] = kSeedMultiplier * (prev ^ (prev >> 62)) + i;
  }
  seeded_ = end;
}

void Mt19937_64::twist(std::size_t from, std::size_t to) {
  std::size_t k = from;
  for (const std::size_t end = std::min(to, kN - kM); k < end; ++k) {
    x_[k] = x_[k + kM] ^ twist_word(x_[k], x_[k + 1]);
  }
  for (const std::size_t end = std::min(to, kN - 1); k < end; ++k) {
    x_[k] = x_[k + kM - kN] ^ twist_word(x_[k], x_[k + 1]);
  }
  if (k < to) x_[kN - 1] = x_[kM - 1] ^ twist_word(x_[kN - 1], x_[0]);
}

void Mt19937_64::complete_block() {
  if (seeded_ == kN) return;
  seed_to(kN);
  if (ready_ == 0) {
    p_ = kN;  // fresh: the seeded state, twisted on the next draw
  } else {
    twist(ready_, kN);
  }
  ready_ = kN;
}

void Mt19937_64::refill() {
  if (ready_ == 0) {
    twist(0, kFirstChunk);
    ready_ = kFirstChunk;
  } else if (seeded_ < kN) {
    complete_block();
  } else {
    twist(0, kN);
    p_ = 0;
  }
}

std::ostream& operator<<(std::ostream& os, const Mt19937_64& e) {
  Mt19937_64 full = e;
  full.complete_block();
  const std::ios_base::fmtflags flags = os.flags(std::ios_base::dec);
  for (const std::uint64_t w : full.x_) os << w << ' ';
  os << full.p_;
  os.flags(flags);
  return os;
}

std::istream& operator>>(std::istream& is, Mt19937_64& e) {
  const std::ios_base::fmtflags flags =
      is.flags(std::ios_base::dec | std::ios_base::skipws);
  std::array<std::uint64_t, Mt19937_64::kN> x{};
  std::size_t p = 0;
  for (std::uint64_t& w : x) is >> w;
  is >> p;
  is.flags(flags);
  if (!is) return is;
  if (p > Mt19937_64::kN) {
    is.setstate(std::ios_base::failbit);
    return is;
  }
  e.x_ = x;
  e.p_ = p;
  e.ready_ = Mt19937_64::kN;
  e.seeded_ = Mt19937_64::kN;
  return is;
}

}  // namespace dh
