/// \file scheme_io.hpp
/// \brief Persisting preprocessed routing schemes.
///
/// Preprocessing costs Õ(n^{1+1/k}); routing state is Õ(n^{1/k}) per
/// vertex. A deployment preprocesses once, saves, and ships tables to
/// routers. save_scheme/load_scheme persist everything the routing
/// algorithms consult — hierarchy, pivots, tables, cluster directories,
/// labels — in a versioned binary format with a graph fingerprint so a
/// scheme cannot silently be loaded against the wrong network.
///
/// Loaded schemes are behaviorally identical: every header prepared and
/// every hop decided from a loaded scheme equals the original's (tested
/// exhaustively in test_scheme_io). The optional FKS index is rebuilt on
/// load (it is derived state; its randomness does not affect results).

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/tz_scheme.hpp"
#include "util/serialize.hpp"

namespace croute {

/// Exact number of bytes save_scheme writes for \p scheme.
std::uint64_t scheme_encoded_size(const TZScheme& scheme);

/// Writes \p scheme into \p w (exactly scheme_encoded_size bytes) — the
/// in-place form the artifact codec embeds as its TZ section.
void save_scheme(ByteWriter& w, const TZScheme& scheme);

/// Serializes \p scheme into a fresh exact-size buffer.
std::string save_scheme(const TZScheme& scheme);

/// Reads a scheme bound to \p g. Throws std::invalid_argument on format,
/// version, or graph-fingerprint mismatch, and on truncated or
/// implausible bytes. The graph must outlive the returned scheme.
TZScheme load_scheme(SpanReader& r, const Graph& g);
TZScheme load_scheme(std::string_view bytes, const Graph& g);

/// File convenience wrappers.
void save_scheme_file(const std::string& path, const TZScheme& scheme);
TZScheme load_scheme_file(const std::string& path, const Graph& g);

/// Structural fingerprint of a graph (order-independent over arcs):
/// detects routing state loaded against the wrong network.
std::uint64_t graph_fingerprint(const Graph& g);

}  // namespace croute
