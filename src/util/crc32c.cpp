#include "util/crc32c.hpp"

#include <array>

namespace croute {

namespace {

/// Slicing-by-8 tables for the reflected Castagnoli polynomial, built at
/// compile time so the fallback needs no startup hook and no locking.
constexpr std::uint32_t kPoly = 0x82F63B78u;

constexpr std::array<std::array<std::uint32_t, 256>, 8> make_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) != 0 ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    t[0][i] = crc;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (std::size_t s = 1; s < 8; ++s) {
      t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr auto kTables = make_tables();

std::uint32_t crc32c_table(const std::uint8_t* p, std::size_t len,
                           std::uint32_t crc) noexcept {
  while (len >= 8) {
    // One 8-byte slice per iteration; the eight table lookups are
    // independent, so the loop pipelines without the bit-serial chain.
    const std::uint32_t lo = crc ^ (std::uint32_t{p[0]} |
                                    (std::uint32_t{p[1]} << 8) |
                                    (std::uint32_t{p[2]} << 16) |
                                    (std::uint32_t{p[3]} << 24));
    const std::uint32_t hi = std::uint32_t{p[4]} |
                             (std::uint32_t{p[5]} << 8) |
                             (std::uint32_t{p[6]} << 16) |
                             (std::uint32_t{p[7]} << 24);
    crc = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
          kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
          kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
    p += 8;
    len -= 8;
  }
  while (len-- > 0) crc = (crc >> 8) ^ kTables[0][(crc ^ *p++) & 0xFF];
  return crc;
}

/// a·b modulo the polynomial, both in the reflected bit order (bit 31 is
/// x^0): the GF(2) product behind crc32c_combine.
constexpr std::uint32_t mul_mod_p(std::uint32_t a, std::uint32_t b) noexcept {
  std::uint32_t product = 0;
  for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if ((a & m) != 0) product ^= b;
    b = (b & 1) != 0 ? (b >> 1) ^ kPoly : b >> 1;
  }
  return product;
}

/// kX2n[k] = x^(2^k) mod P, so x^n mod P is a product over n's set bits.
constexpr std::array<std::uint32_t, 64> make_x2n() {
  std::array<std::uint32_t, 64> t{};
  std::uint32_t p = 1u << 30;  // x^1
  for (std::uint32_t& e : t) {
    e = p;
    p = mul_mod_p(p, p);
  }
  return t;
}

constexpr auto kX2n = make_x2n();

#if defined(__x86_64__) || defined(__i386__)

/// Hardware path: the SSE4.2 `crc32` instruction via builtins, so this
/// translation unit needs no global -msse4.2 (only src/simd/ TUs get ISA
/// flags — see CMakeLists); the function-level target attribute scopes
/// the instruction to this body and the CPUID check below gates entry.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_hw(
    const std::uint8_t* p, std::size_t len, std::uint32_t crc) noexcept {
#if defined(__x86_64__)
  std::uint64_t crc64 = crc;
  while (len >= 8) {
    std::uint64_t v;
    __builtin_memcpy(&v, p, 8);
    crc64 = __builtin_ia32_crc32di(crc64, v);
    p += 8;
    len -= 8;
  }
  crc = static_cast<std::uint32_t>(crc64);
#endif
  while (len >= 4) {
    std::uint32_t v;
    __builtin_memcpy(&v, p, 4);
    crc = __builtin_ia32_crc32si(crc, v);
    p += 4;
    len -= 4;
  }
  while (len-- > 0) crc = __builtin_ia32_crc32qi(crc, *p++);
  return crc;
}

bool have_sse42() noexcept {
  static const bool have = __builtin_cpu_supports("sse4.2") != 0;
  return have;
}

#else

bool have_sse42() noexcept { return false; }

#endif

}  // namespace

std::uint32_t crc32c(const void* bytes, std::size_t len,
                     std::uint32_t seed) noexcept {
  const auto* p = static_cast<const std::uint8_t*>(bytes);
  std::uint32_t crc = ~seed;
#if defined(__x86_64__) || defined(__i386__)
  if (have_sse42()) return ~crc32c_hw(p, len, crc);
#endif
  return ~crc32c_table(p, len, crc);
}

std::uint32_t crc32c_combine(std::uint32_t crc1, std::uint32_t crc2,
                             std::uint64_t len2) noexcept {
  // Appending len2 bytes multiplies A's register by x^(8·len2); the
  // entry/exit inversions cancel between the two parts.
  std::uint32_t shift = 1u << 31;  // x^0
  for (unsigned k = 3; len2 != 0; len2 >>= 1, ++k) {
    if ((len2 & 1) != 0) shift = mul_mod_p(kX2n[k], shift);
  }
  return mul_mod_p(shift, crc1) ^ crc2;
}

const char* crc32c_backend() noexcept {
  return have_sse42() ? "sse4.2" : "table";
}

}  // namespace croute
