/// \file crc32c.hpp
/// \brief CRC32C (Castagnoli) — the checksum shared by the persistence
/// tier and graph/io.
///
/// One polynomial (0x1EDC6F41, reflected 0x82F63B78), two backends behind
/// a runtime dispatch: the SSE4.2 `crc32` instruction where CPUID says it
/// exists, and a slicing-by-8 table fallback everywhere else. Both
/// backends produce identical values — a checksum written on one host
/// verifies on any other, which is what makes artifacts relocatable.
///
/// The incremental form (`seed` = previous return value) lets callers
/// checksum a stream in chunks; pass 0 to start. Values match the widely
/// deployed CRC32C convention (iSCSI, ext4, leveldb): the state is
/// inverted on entry and on exit.

#pragma once

#include <cstddef>
#include <cstdint>

namespace croute {

/// CRC32C of `bytes[0..len)`, continuing from \p seed (0 = fresh).
std::uint32_t crc32c(const void* bytes, std::size_t len,
                     std::uint32_t seed = 0) noexcept;

/// CRC32C of the concatenation A·B, given crc1 = CRC32C(A), crc2 =
/// CRC32C(B) and len2 = |B| — O(log len2), no bytes touched. Lets a
/// container derive its whole-file sum from its per-part sums, so every
/// byte is checksummed once.
std::uint32_t crc32c_combine(std::uint32_t crc1, std::uint32_t crc2,
                             std::uint64_t len2) noexcept;

/// Which backend the dispatch selected: "sse4.2" or "table". Stamped into
/// artifact metadata so a verify failure report can say what computed the
/// stored sums.
const char* crc32c_backend() noexcept;

}  // namespace croute
