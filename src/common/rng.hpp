// Deterministic random-number utilities.
//
// All stochastic models take an Rng& explicitly (no global state) so that
// every simulation, test, and benchmark is reproducible from its seed.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <random>

#include "common/error.hpp"

namespace dh {

namespace detail {

/// splitmix64 finalizer: full-avalanche 64-bit mix (Steele et al.). Every
/// input bit affects every output bit, so nearby inputs (consecutive task
/// indices) map to statistically independent seeds.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// The splitmix64 sequence increment (golden-ratio constant).
inline constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ull;

}  // namespace detail

/// MT19937-64 with exactly std::mt19937_64's output sequence, which
/// [rand.eng.mers] fixes; tests pin it against std::mt19937_64. It is
/// hand-rolled because Rng::stream engines are mostly fresh and short-lived
/// (a population draw makes a handful of draws from each), and
/// std::mt19937_64 makes a fresh engine expensive: seeding fills all 312
/// state words and the first draw twists all 312. Here a fresh engine
/// seeds only the words its first kFirstChunk outputs depend on and twists
/// that chunk on the first draw; reaching the end of the chunk seeds and
/// twists the rest of the block at once, and every later block is twisted
/// whole. Twisting word by word in order is the same arithmetic as the
/// standard's batch twist, so the outputs cannot differ.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt19937_64(result_type seed = 5489u);

  result_type operator()() {
    if (p_ >= ready_) refill();
    result_type z = x_[p_++];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71D67FFFEDA60000ull;
    z ^= (z << 37) & 0xFFF7EEE000000000ull;
    return z ^ (z >> 43);
  }

  /// std::mt19937_64's text format (312 state words, then the index; 312
  /// for a fresh engine), so the text equals the standard engine's at the
  /// same stream position and either engine loads the other's text. A lazy
  /// first block is completed on a copy before writing. Reading an index
  /// above 312 sets failbit and leaves the engine unchanged.
  friend std::ostream& operator<<(std::ostream& os, const Mt19937_64& e);
  friend std::istream& operator>>(std::istream& is, Mt19937_64& e);

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;
  static constexpr std::size_t kFirstChunk = 16;

  void refill();
  /// Seed x_[seeded_, end) from x_[seeded_ - 1].
  void seed_to(std::size_t end);
  /// Twist x_[from, to) in order.
  void twist(std::size_t from, std::size_t to);
  /// Seed and twist the rest of a lazy first block, leaving the state
  /// std::mt19937_64 has at the same stream position.
  void complete_block();

  std::array<result_type, kN> x_{};
  std::size_t p_ = 0;       // next word to output
  std::size_t ready_ = 0;   // x_[0, ready_) is twisted
  std::size_t seeded_ = 0;  // x_[0, seeded_) is live; kN once complete
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) : engine_(seed) {}

  /// Standard normal deviate scaled to (mean, sigma). sigma = 0 returns
  /// `mean` (after drawing, so the stream advances as for sigma > 0);
  /// std::normal_distribution itself requires sigma > 0.
  [[nodiscard]] double normal(double mean, double sigma) {
    DH_REQUIRE(sigma >= 0.0, "normal deviate needs sigma >= 0");
    return std::normal_distribution<double>{}(engine_) * sigma + mean;
  }

  /// Lognormal deviate with the given log-domain parameters.
  [[nodiscard]] double lognormal(double mu, double sigma) {
    return std::lognormal_distribution<double>{mu, sigma}(engine_);
  }

  /// Bernoulli trial with probability p of true.
  [[nodiscard]] bool bernoulli(double p) {
    return std::bernoulli_distribution{p}(engine_);
  }

  /// Seed of child stream `index` of `root_seed` — the index-th output of
  /// the splitmix64 sequence started at root_seed. Order-independent:
  /// stream i is the same no matter which streams were derived before it,
  /// which is what makes parallel Monte-Carlo populations bit-identical
  /// at any thread count.
  [[nodiscard]] static std::uint64_t stream_seed(std::uint64_t root_seed,
                                                std::uint64_t index) {
    return detail::mix64(root_seed + (index + 1) * detail::kGolden);
  }

  /// Child stream `index` of `root_seed` (see stream_seed).
  [[nodiscard]] static Rng stream(std::uint64_t root_seed,
                                  std::uint64_t index) {
    return Rng{stream_seed(root_seed, index)};
  }

  [[nodiscard]] Mt19937_64& engine() { return engine_; }
  [[nodiscard]] const Mt19937_64& engine() const { return engine_; }

 private:
  Mt19937_64 engine_;
};

}  // namespace dh
