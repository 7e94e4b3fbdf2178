//===- ParseNumber.h - Strict numbers for flags and requests ----*- C++ -*-===//
//
// Part of nv-cpp, a C++ reproduction of "NV: An Intermediate Language for
// Verification of Network Control Planes" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#ifndef NV_SUPPORT_PARSENUMBER_H
#define NV_SUPPORT_PARSENUMBER_H

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string_view>

namespace nv {

/// All of \p S as a decimal T: "", "abc", "3x", "+3", out of T's range and,
/// for an unsigned T, "-1" are rejected (not read as 0, 3 or 2^32-1).
template <class T> bool parseInteger(std::string_view S, T &Out) {
  const char *End = S.data() + S.size();
  T V{};
  auto [Ptr, Ec] = std::from_chars(S.data(), End, V);
  if (S.empty() || Ec != std::errc() || Ptr != End)
    return false;
  Out = V;
  return true;
}

/// parseInteger with C's base prefixes, as strtoull(S, nullptr, 0) reads
/// them: "0x1F" is hex, "017" octal, anything else decimal. Just as strict:
/// "", "0x", "abc", "3x", "+3", "-1" and out-of-range values are rejected.
template <class T> bool parseIntegerAnyBase(std::string_view S, T &Out) {
  int Base = 10;
  if (S.size() > 1 && S[0] == '0' && (S[1] == 'x' || S[1] == 'X')) {
    Base = 16;
    S.remove_prefix(2);
  } else if (S.size() > 1 && S[0] == '0') {
    Base = 8;
    S.remove_prefix(1);
  }
  const char *End = S.data() + S.size();
  T V{};
  auto [Ptr, Ec] = std::from_chars(S.data(), End, V, Base);
  if (S.empty() || Ec != std::errc() || Ptr != End)
    return false;
  Out = V;
  return true;
}

/// All of \p S as a finite number >= 0 ("0.0001", "1e3"); no sign.
inline bool parseNonNegative(std::string_view S, double &Out) {
  const char *End = S.data() + S.size();
  double V = 0;
  auto [Ptr, Ec] = std::from_chars(S.data(), End, V);
  if (S.empty() || S[0] == '-' || Ec != std::errc() || Ptr != End ||
      !std::isfinite(V))
    return false;
  Out = V;
  return true;
}

/// \p D (a JSON number) as a whole number in [0, \p Max].
inline bool wholeNumber(double D, uint64_t Max, uint64_t &Out) {
  // 2^64: every smaller non-negative double without a fraction converts.
  if (!(D >= 0) || D != std::floor(D) || D >= 18446744073709551616.0 ||
      static_cast<uint64_t>(D) > Max)
    return false;
  Out = static_cast<uint64_t>(D);
  return true;
}

} // namespace nv

#endif // NV_SUPPORT_PARSENUMBER_H
