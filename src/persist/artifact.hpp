/// \file artifact.hpp
/// \brief The on-disk scheme artifact: a versioned, section-checksummed,
/// relocatable container for one full SchemePackage generation.
///
/// A million-user routing service must survive being killed; paying full
/// TZ preprocessing plus flat compilation on every start is the cost this
/// tier removes. An artifact carries everything a generation serves from —
/// the graph copy, the TZ preprocessing (scheme_io bytes), and the
/// compiled flat pools for EVERY SchemeKind (the old warm-start path
/// covered TZ only) — so a restart is a read + verify + pointer fix-up,
/// not a rebuild.
///
/// Layout (all little-endian, util/serialize.hpp):
///
///   header   magic "croutea1" · format version · generation metadata
///            (scheme kind, k, sampling, seed, n, options digest, graph
///            fingerprint, generation number, build host/ISA stamp) ·
///            section table (id, absolute offset, size, CRC32C each) ·
///            CRC32C of the header bytes
///   payload  sections back to back (GRAPH, TZ, FLAT_TZ, FLAT_COWEN,
///            FLAT_FULL — whichever the package carries)
///   trailer  CRC32C of everything before it (whole-file)
///
/// The dual stamps — format version for the *container*, the metadata
/// digests for the *generation* — mean a loader rejects incompatible or
/// torn artifacts from the header alone, before touching payload bytes;
/// per-section sums then localize any corruption to the section that
/// rotted. Loaded state is byte-identical to a fresh build on the same
/// (graph, options): the TZ bytes go through scheme_io's proven
/// round-trip, the flat pools are stored verbatim, and the only derived
/// state (the FKS perfect-hash indexes, bits-by-length tables) is
/// recomputed from the same seeds it was originally drawn from.
///
/// Everything here is pure bytes-in/bytes-out; the atomic file lifecycle
/// (tmp → fsync → rename, MANIFEST, retention, fault injection) lives in
/// artifact_store.hpp.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "service/scheme_package.hpp"

namespace croute::persist {

/// Container format version (bump on layout changes; loaders reject
/// anything else — version skew falls back to fresh preprocessing).
inline constexpr std::uint32_t kArtifactFormatVersion = 1;

/// Generation metadata, readable from the header alone.
struct ArtifactMeta {
  std::uint32_t format_version = 0;
  SchemeKind scheme = SchemeKind::kTZDirect;
  SamplingMode sampling = SamplingMode::kCentered;
  bool use_flat = true;
  FlatLookup flat_lookup = FlatLookup::kEytzinger;
  bool warm_started = false;  ///< generation originated from a warm start
  std::uint32_t k = 0;
  VertexId n = 0;             ///< vertex count of the payload graph
  std::uint64_t seed = 0;
  std::uint64_t options_digest = 0;  ///< content_options_digest at build
  std::uint64_t graph_digest = 0;    ///< graph_fingerprint of the payload
  std::uint64_t generation = 0;      ///< store generation number
  std::string build_host;            ///< SIMD ISA + CRC backend stamp
};

/// Digest over the options fields that determine a package's bytes
/// (scheme, k, sampling, seed, use_flat, flat_lookup). Serving knobs
/// (threads, batch_group, metrics, record_paths) do not participate: a
/// recovered artifact serves under whatever serving options the process
/// was started with.
std::uint64_t content_options_digest(const RouteServiceOptions& options);

/// Whether \p pkg can be written as an artifact. The only unpersistable
/// shape is a legacy (use_flat = false) baseline package — CowenScheme /
/// FullTableScheme preprocessing layouts are not serialized; their flat
/// pools are. Returns false with a recorded reason instead of throwing:
/// graceful degradation means the store logs why and the service simply
/// pays a fresh build on the next start.
bool package_persistable(const SchemePackage& pkg, std::string* reason);

/// Serializes \p pkg into artifact bytes (throws std::invalid_argument
/// when !package_persistable). Every section is sized first, so the
/// header is written once with final offsets and the sections are
/// encoded in place into one exact-size buffer; each byte is written
/// once and checksummed once.
std::string encode_package(const SchemePackage& pkg,
                           std::uint64_t generation);

/// One entry of the header's section table.
struct ArtifactSection {
  std::uint32_t id = 0;
  std::uint64_t offset = 0;  ///< absolute, in the artifact
  std::uint64_t size = 0;
  std::uint32_t crc = 0;     ///< CRC32C recorded by the writer
};

/// The parsed header: metadata plus the section table, with the header
/// CRC and the table's geometry (contiguous, in bounds, no duplicate ids)
/// already checked. Payload bytes are not touched to produce it.
struct ArtifactHeader {
  ArtifactMeta meta;
  std::vector<ArtifactSection> sections;
  std::uint64_t header_bytes = 0;  ///< header size incl. its CRC
};

/// Stage 1, header only: magic, format version, field sanity, header CRC,
/// section table geometry. Version skew and torn headers bounce here,
/// before any payload byte is read. Throws std::invalid_argument.
ArtifactHeader read_artifact_header(std::string_view bytes);

/// Artifact bytes whose whole-file CRC has been verified. Only
/// verify_artifact makes one; decode_package consumes it. \p bytes must
/// outlive it.
class VerifiedArtifact {
 public:
  std::string_view bytes() const noexcept { return bytes_; }
  const ArtifactHeader& header() const noexcept { return header_; }
  /// CRC32C of each section's bytes as found (index-aligned with
  /// header().sections); decode compares them with the recorded ones.
  const std::vector<std::uint32_t>& section_crcs() const noexcept {
    return crcs_;
  }

 private:
  friend VerifiedArtifact verify_artifact(std::string_view,
                                          ArtifactHeader);
  VerifiedArtifact() = default;
  std::string_view bytes_;
  ArtifactHeader header_;
  std::vector<std::uint32_t> crcs_;
};

/// Stage 2: checksums every payload byte once (one CRC32C pass per
/// section) and derives the whole-file CRC from the header and section
/// sums with crc32c_combine. Throws std::invalid_argument when it
/// disagrees with the trailer (torn or truncated artifact). Per-section
/// mismatches are left to decode_package, which names the section.
VerifiedArtifact verify_artifact(std::string_view bytes, ArtifactHeader header);

/// Header validation plus the whole-file CRC (stages 1 and 2); does not
/// decode payload.
ArtifactMeta read_artifact_meta(std::string_view bytes);

/// Stage 3, full decode: checks content options against \p serving
/// (digest equality; serving-only knobs are taken from \p serving) and
/// every section checksum the package needs, then reconstructs the
/// package. The returned package owns its graph and is
/// indistinguishable from a fresh build_scheme_package on the same
/// (graph, content options) — the byte-identity contract
/// tests/test_persist.cpp pins. Throws std::invalid_argument on any
/// mismatch or corruption; never crashes on hostile bytes
/// (tests/test_fuzz.cpp's mutation corpus).
SchemePackagePtr decode_package(const VerifiedArtifact& artifact,
                                const RouteServiceOptions& serving,
                                ArtifactMeta* meta_out = nullptr);

/// All three stages over \p bytes.
SchemePackagePtr decode_package(std::string_view bytes,
                                const RouteServiceOptions& serving,
                                ArtifactMeta* meta_out = nullptr);

}  // namespace croute::persist
