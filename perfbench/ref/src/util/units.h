// Strong-typed units and quantities used throughout the Silo library.
//
// Time is integer nanoseconds (int64): at nanosecond resolution a signed
// 64-bit tick counter spans ~292 years, far beyond any simulation, and
// integer time keeps the discrete-event simulator deterministic. Rates are
// double bits-per-second; sizes are integer bytes.
//
// Each quantity is a thin constexpr strong type, not a raw alias: mixing
// nanoseconds, bytes and bits-per-second is a compile error, construction
// from raw arithmetic values is explicit, and only the dimensionally
// correct operator set exists:
//
//   TimeNs  ± TimeNs  -> TimeNs      Bytes ± Bytes -> Bytes
//   TimeNs  * integer -> TimeNs      Bytes * integer -> Bytes
//   TimeNs  / TimeNs  -> int64       Bytes / Bytes -> int64   (ratios)
//   TimeNs  % TimeNs  -> TimeNs      Bytes % Bytes -> Bytes
//   Bytes   / RateBps -> TimeNs      (serialization time, ceil — see
//                                     transmission_time())
//   RateBps * TimeNs  -> Bytes       (bytes emitted over an interval,
//                                     truncated — see bytes_in())
//   Bytes   / TimeNs  -> RateBps     (average rate)
//
// Cross-unit assignment (TimeNs <-> Bytes <-> RateBps) does not compile;
// tests/compile_fail/ proves it stays that way. In debug builds (and under
// SILO_AUDIT) the integer types check every + - * for int64 overflow.
//
// Escaping to a raw number is always explicit: `.count()` / `.bps()` or a
// static_cast. Keep such escapes at the edges (formatting, hashing,
// histograms), never in simulated-time arithmetic.
#pragma once

#include <cstdint>
#include <ostream>
#include <stdexcept>
#include <type_traits>

namespace silo {

#if !defined(NDEBUG) || defined(SILO_AUDIT)
#define SILO_UNITS_CHECKED 1
#endif

namespace unit_detail {

template <class T>
inline constexpr bool is_scalar_v =
    std::is_arithmetic_v<T> && !std::is_same_v<T, bool>;

constexpr std::int64_t checked_add(std::int64_t a, std::int64_t b,
                                   const char* what) {
#ifdef SILO_UNITS_CHECKED
  std::int64_t r = 0;
  if (__builtin_add_overflow(a, b, &r)) throw std::overflow_error(what);
  return r;
#else
  (void)what;
  return a + b;
#endif
}

constexpr std::int64_t checked_sub(std::int64_t a, std::int64_t b,
                                   const char* what) {
#ifdef SILO_UNITS_CHECKED
  std::int64_t r = 0;
  if (__builtin_sub_overflow(a, b, &r)) throw std::overflow_error(what);
  return r;
#else
  (void)what;
  return a - b;
#endif
}

constexpr std::int64_t checked_mul(std::int64_t a, std::int64_t b,
                                   const char* what) {
#ifdef SILO_UNITS_CHECKED
  std::int64_t r = 0;
  if (__builtin_mul_overflow(a, b, &r)) throw std::overflow_error(what);
  return r;
#else
  (void)what;
  return a * b;
#endif
}

}  // namespace unit_detail

/// Simulated time in nanoseconds.
class TimeNs {
 public:
  constexpr TimeNs() = default;
  template <class T, std::enable_if_t<unit_detail::is_scalar_v<T>, int> = 0>
  constexpr explicit TimeNs(T v) : v_(static_cast<std::int64_t>(v)) {}

  /// Raw nanosecond count — the only way (besides static_cast) back to a
  /// raw number. Use at formatting/hashing edges only.
  constexpr std::int64_t count() const { return v_; }

  template <class T, std::enable_if_t<unit_detail::is_scalar_v<T>, int> = 0>
  constexpr explicit operator T() const {
    return static_cast<T>(v_);
  }

  static constexpr TimeNs max() { return TimeNs{INT64_MAX}; }
  static constexpr TimeNs min() { return TimeNs{INT64_MIN}; }

  friend constexpr auto operator<=>(TimeNs, TimeNs) = default;

  constexpr TimeNs& operator+=(TimeNs o) {
    v_ = unit_detail::checked_add(v_, o.v_, "TimeNs overflow");
    return *this;
  }
  constexpr TimeNs& operator-=(TimeNs o) {
    v_ = unit_detail::checked_sub(v_, o.v_, "TimeNs underflow");
    return *this;
  }
  friend constexpr TimeNs operator+(TimeNs a, TimeNs b) { return a += b; }
  friend constexpr TimeNs operator-(TimeNs a, TimeNs b) { return a -= b; }
  friend constexpr TimeNs operator-(TimeNs a) { return TimeNs{-a.v_}; }

  template <class I, std::enable_if_t<std::is_integral_v<I>, int> = 0>
  friend constexpr TimeNs operator*(TimeNs a, I k) {
    return TimeNs{unit_detail::checked_mul(a.v_, static_cast<std::int64_t>(k),
                                           "TimeNs overflow")};
  }
  template <class I, std::enable_if_t<std::is_integral_v<I>, int> = 0>
  friend constexpr TimeNs operator*(I k, TimeNs a) {
    return a * k;
  }
  template <class I, std::enable_if_t<std::is_integral_v<I>, int> = 0>
  friend constexpr TimeNs operator/(TimeNs a, I k) {
    return TimeNs{a.v_ / static_cast<std::int64_t>(k)};
  }
  /// Dimensionless ratio of two durations.
  friend constexpr std::int64_t operator/(TimeNs a, TimeNs b) {
    return a.v_ / b.v_;
  }
  friend constexpr TimeNs operator%(TimeNs a, TimeNs b) {
    return TimeNs{a.v_ % b.v_};
  }

 private:
  std::int64_t v_ = 0;
};

inline constexpr TimeNs kNsec{1};
inline constexpr TimeNs kUsec{1000};
inline constexpr TimeNs kMsec{1000 * 1000};
inline constexpr TimeNs kSec{1000 * 1000 * 1000};

/// Data sizes in bytes.
class Bytes {
 public:
  constexpr Bytes() = default;
  template <class T, std::enable_if_t<unit_detail::is_scalar_v<T>, int> = 0>
  constexpr explicit Bytes(T v) : v_(static_cast<std::int64_t>(v)) {}

  constexpr std::int64_t count() const { return v_; }

  template <class T, std::enable_if_t<unit_detail::is_scalar_v<T>, int> = 0>
  constexpr explicit operator T() const {
    return static_cast<T>(v_);
  }

  static constexpr Bytes max() { return Bytes{INT64_MAX}; }

  friend constexpr auto operator<=>(Bytes, Bytes) = default;

  constexpr Bytes& operator+=(Bytes o) {
    v_ = unit_detail::checked_add(v_, o.v_, "Bytes overflow");
    return *this;
  }
  constexpr Bytes& operator-=(Bytes o) {
    v_ = unit_detail::checked_sub(v_, o.v_, "Bytes underflow");
    return *this;
  }
  friend constexpr Bytes operator+(Bytes a, Bytes b) { return a += b; }
  friend constexpr Bytes operator-(Bytes a, Bytes b) { return a -= b; }
  friend constexpr Bytes operator-(Bytes a) { return Bytes{-a.v_}; }

  template <class I, std::enable_if_t<std::is_integral_v<I>, int> = 0>
  friend constexpr Bytes operator*(Bytes a, I k) {
    return Bytes{unit_detail::checked_mul(a.v_, static_cast<std::int64_t>(k),
                                          "Bytes overflow")};
  }
  template <class I, std::enable_if_t<std::is_integral_v<I>, int> = 0>
  friend constexpr Bytes operator*(I k, Bytes a) {
    return a * k;
  }
  template <class I, std::enable_if_t<std::is_integral_v<I>, int> = 0>
  friend constexpr Bytes operator/(Bytes a, I k) {
    return Bytes{a.v_ / static_cast<std::int64_t>(k)};
  }
  friend constexpr std::int64_t operator/(Bytes a, Bytes b) {
    return a.v_ / b.v_;
  }
  friend constexpr Bytes operator%(Bytes a, Bytes b) {
    return Bytes{a.v_ % b.v_};
  }

 private:
  std::int64_t v_ = 0;
};

inline constexpr Bytes kKB{1000};
inline constexpr Bytes kKiB{1024};
inline constexpr Bytes kMB{1000 * 1000};

/// Ethernet framing constants (used by the pacer and the packet simulator).
/// An MTU-sized frame on the wire: 1500 B payload + 14 B Ethernet header +
/// 4 B FCS + 8 B preamble + 12 B inter-frame gap.
inline constexpr Bytes kMtu{1500};
inline constexpr Bytes kEthOverhead{38};
/// Minimum Ethernet frame on the wire, including preamble and IFG (the
/// paper's 84-byte "void packet" floor: 64 B frame + 20 B preamble/IFG).
inline constexpr Bytes kMinWireFrame{84};

/// Link / guarantee rate in bits per second.
class RateBps {
 public:
  constexpr RateBps() = default;
  template <class T, std::enable_if_t<unit_detail::is_scalar_v<T>, int> = 0>
  constexpr explicit RateBps(T v) : v_(static_cast<double>(v)) {}

  /// Raw bits-per-second value.
  constexpr double bps() const { return v_; }

  template <class T, std::enable_if_t<unit_detail::is_scalar_v<T>, int> = 0>
  constexpr explicit operator T() const {
    return static_cast<T>(v_);
  }

  friend constexpr auto operator<=>(RateBps, RateBps) = default;

  constexpr RateBps& operator+=(RateBps o) {
    v_ += o.v_;
    return *this;
  }
  constexpr RateBps& operator-=(RateBps o) {
    v_ -= o.v_;
    return *this;
  }
  friend constexpr RateBps operator+(RateBps a, RateBps b) { return a += b; }
  friend constexpr RateBps operator-(RateBps a, RateBps b) { return a -= b; }

  template <class T, std::enable_if_t<unit_detail::is_scalar_v<T>, int> = 0>
  friend constexpr RateBps operator*(RateBps a, T k) {
    return RateBps{a.v_ * static_cast<double>(k)};
  }
  template <class T, std::enable_if_t<unit_detail::is_scalar_v<T>, int> = 0>
  friend constexpr RateBps operator*(T k, RateBps a) {
    return a * k;
  }
  template <class T, std::enable_if_t<unit_detail::is_scalar_v<T>, int> = 0>
  friend constexpr RateBps operator/(RateBps a, T k) {
    return RateBps{a.v_ / static_cast<double>(k)};
  }
  /// Dimensionless ratio of two rates.
  friend constexpr double operator/(RateBps a, RateBps b) {
    return a.v_ / b.v_;
  }

 private:
  double v_ = 0.0;
};

inline constexpr RateBps kKbps{1e3};
inline constexpr RateBps kMbps{1e6};
inline constexpr RateBps kGbps{1e9};

/// Time to serialize `bytes` onto a link of rate `bps`, rounded up to a
/// whole nanosecond so that back-to-back transmissions never overlap.
///
/// Integral rates (every realistic link or guarantee rate) take an exact
/// 128-bit ceil-division path: the previous double round-trip lost
/// exactness once `bytes * 8e9` exceeded 2^53 (~1.1 MB payloads).
/// Fractional rates keep the legacy correctly-rounded double path.
constexpr TimeNs transmission_time(Bytes bytes, RateBps bps) {
  if (bps.bps() <= 0.0) return TimeNs{0};
  const double r = bps.bps();
  constexpr double kMaxIntegralRate = 9.2e18;  // fits in int64
  if (r >= 1.0 && r < kMaxIntegralRate &&
      r == static_cast<double>(static_cast<std::int64_t>(r))) {
    const auto den = static_cast<std::int64_t>(r);
    const auto num = static_cast<__int128>(bytes.count()) * 8 * 1000000000;
    if (num <= 0) return TimeNs{0};
    return TimeNs{static_cast<std::int64_t>((num + den - 1) / den)};
  }
  const double ns = static_cast<double>(bytes.count()) * 8.0 * 1e9 / r;
  const auto t = static_cast<std::int64_t>(ns);
  return TimeNs{(static_cast<double>(t) < ns) ? t + 1 : t};
}

/// Bytes that a rate can emit over an interval (truncated).
constexpr Bytes bytes_in(RateBps bps, TimeNs dt) {
  if (dt <= TimeNs{0} || bps.bps() <= 0.0) return Bytes{0};
  return Bytes{static_cast<std::int64_t>(bps.bps() *
                                         static_cast<double>(dt.count()) /
                                         8e9)};
}

/// Serialization time as an operator: `Bytes / RateBps -> TimeNs`.
constexpr TimeNs operator/(Bytes b, RateBps r) {
  return transmission_time(b, r);
}

/// Emitted volume as an operator: `RateBps * TimeNs -> Bytes`.
constexpr Bytes operator*(RateBps r, TimeNs dt) { return bytes_in(r, dt); }
constexpr Bytes operator*(TimeNs dt, RateBps r) { return bytes_in(r, dt); }

/// Formatting edges print the raw count, exactly as the weak aliases did.
inline std::ostream& operator<<(std::ostream& os, TimeNs t) {
  return os << t.count();
}
inline std::ostream& operator<<(std::ostream& os, Bytes b) {
  return os << b.count();
}
inline std::ostream& operator<<(std::ostream& os, RateBps r) {
  return os << r.bps();
}

/// Average rate over an interval: `Bytes / TimeNs -> RateBps`.
constexpr RateBps operator/(Bytes b, TimeNs dt) {
  if (dt <= TimeNs{0}) return RateBps{0};
  return RateBps{static_cast<double>(b.count()) * 8e9 /
                 static_cast<double>(dt.count())};
}

}  // namespace silo
