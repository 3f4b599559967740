// Division by a run-time constant without a division instruction, exact for
// every 64-bit dividend — the decode of Eq. 4, (key / stride) % r, in the
// marginalization, query-filter and all-pairs MI sweeps.
//
// For a divisor d >= 2 let l = ceil(log2 d). The 65-bit reciprocal
// M = 2^64 + m, m = floor(2^64 * (2^l - d) / d) + 1, satisfies
//   floor(x / d) = floor((t + floor((x - t) / 2)) / 2^(l-1)),
//   t = floor(m * x / 2^64),
// for every x < 2^64 (Granlund & Montgomery, "Division by invariant
// integers using multiplication", PLDI 1994, Fig. 4.1): one 64x64->128
// multiply, a subtract, two shifts and an add, where the hardware divider
// takes tens of cycles. (x - t) / 2 + t is (x + t) / 2 without overflow,
// which is how the 65th bit of M enters. A power of two gives m = 1, t = 0
// and a plain shift. d = 1 keeps m = 0 and a shift of 63, which zeroes the
// quotient, and adds x back through a mask, so the quotient stays
// branch-free.
#pragma once

#include <bit>
#include <cstdint>

namespace wfbn {

class ExactDivider {
 public:
  /// Precondition: d >= 1.
  explicit ExactDivider(std::uint64_t d) noexcept
      : d_(d), identity_mask_(d == 1 ? ~0ULL : 0) {
    if (d >= 2) {
      const auto l = static_cast<unsigned>(64 - std::countl_zero(d - 1));
      const unsigned __int128 excess =
          (static_cast<unsigned __int128>(1) << l) - d;  // < d
      m_ = static_cast<std::uint64_t>((excess << 64) / d) + 1;
      shift_ = l - 1;
    }
  }

  [[nodiscard]] std::uint64_t divisor() const noexcept { return d_; }

  /// floor(x / d).
  [[nodiscard]] std::uint64_t divide(std::uint64_t x) const noexcept {
    const auto t = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(m_) * x) >> 64);
    return ((t + ((x - t) >> 1)) >> shift_) + (x & identity_mask_);
  }

  /// x mod d.
  [[nodiscard]] std::uint64_t remainder(std::uint64_t x) const noexcept {
    return x - divide(x) * d_;
  }

 private:
  std::uint64_t m_ = 0;
  std::uint64_t d_;
  std::uint64_t identity_mask_;  ///< all ones iff d == 1
  unsigned shift_ = 63;
};

/// One mixed-radix digit (Eq. 4): (x / stride) % cardinality.
[[nodiscard]] inline std::uint64_t mixed_radix_digit(
    std::uint64_t x, const ExactDivider& stride,
    const ExactDivider& cardinality) noexcept {
  return cardinality.remainder(stride.divide(x));
}

}  // namespace wfbn
