#pragma once

#include <cstdint>
#include <string>

#include "score.h"
#include "util/status.h"

/// \file gen.h
/// Seeded input generator of the end-to-end benchmark: VCDS streams, a VCDQ
/// query portfolio and a ground-truth sidecar (truth.txt, see score.h).
///
/// Rendering and encoding every frame is far too slow for a per-run input
/// (a 60 s NTSC clip takes ~19 s to render and ~75 s to encode with motion
/// search), so the generator works at GOP granularity:
/// - one frame is rendered per GOP and held for the whole GOP, so each GOP
///   is one real intra frame plus near-empty predicted frames. The partial
///   decoder skips predicted frames by their length field, so the decode
///   work per key frame is that of a fully rendered stream;
/// - a library of GOPs is encoded once from a few base films, and streams
///   are spliced together from shot-length runs of library GOPs with the
///   planted copies in between. VCDS frames are self-delimiting, so GOP
///   splicing needs no re-encode.
/// Planted queries are sketched from their own encodes
/// (`PartialDecoder::ExtractAll` + `core::PrepareQuery`); each filler query
/// comes from the DC fast path (`RenderDcFrames`) of its own film, which
/// never appears in a stream. Every random choice derives from the seed, and work is split
/// across threads by item, so the files are byte-identical for a seed.
namespace pb {

/// What the workloads vary (with the tool binary, the cache key). The
/// format (29.97 fps, GOP 12), K=800, the 30 s planted queries and the
/// 20-40 s filler queries are the same for every workload (gen.cc).
struct GenParams {
  uint64_t seed = 0;
  int width = 0;
  int height = 0;
  int streams = 0;
  double stream_seconds = 0.0;
  int planted_per_stream = 0;
  /// Share of planted copies inserted unedited (VS1); the rest are VS2 edits.
  double vs1_share = 0.0;
  int filler_queries = 0;
  /// Worker threads used for rendering and encoding (output independent).
  int threads = 4;

  /// One-line `key=value` rendering, for error messages.
  std::string ToString() const;
};

/// Writes streams/*.vcds, setup/*.vcds (each stream cut after its first
/// GOP), queries.vcdq and truth.txt under \p out_dir; returns the truth.
vcd::Result<Truth> Generate(const GenParams& params, const std::string& out_dir);

}  // namespace pb
