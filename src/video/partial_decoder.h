#pragma once

#include <cstdint>
#include <vector>

#include "obs/pipeline_metrics.h"
#include "util/status.h"
#include "video/codec.h"

/// \file partial_decoder.h
/// Partial decoding of VCDS bit streams: extracts only the luma DC
/// coefficients of key (I) frames, skipping P-frames wholesale and never
/// running an inverse DCT — the compressed-domain fast path the paper relies
/// on for real-time feature extraction (§III-A).
///
/// Two error modes (see DESIGN.md §12, "Failure model"):
/// - **strict** (default): the first malformed byte fails `NextKeyFrame`
///   with `kCorruption` and the decoder stops — the right contract for
///   archival tooling that must not paper over damage.
/// - **resync** (`set_resync_on_corruption(true)`): a live-ingestion mode
///   that treats corruption as weather. A bad frame header triggers a
///   forward scan for the next plausible frame boundary; a mid-payload
///   entropy failure keeps the DC prefix already decoded, zeroes the rest
///   and emits the frame with `DcFrame::degraded = true` so downstream
///   detection can skip the affected basic window instead of killing the
///   stream.

namespace vcd::video {

/// \brief The luma DC coefficient map of one key frame.
///
/// `dc[by * blocks_x + bx]` is the dequantized DC coefficient of the 8×8
/// block at (bx, by); with the codec's orthonormal DCT this equals
/// `8 × (block mean − 128)`.
struct DcFrame {
  int64_t frame_index = 0;  ///< position among *all* frames of the stream
  double timestamp = 0.0;   ///< seconds from stream start
  int blocks_x = 0;
  int blocks_y = 0;
  /// True when the frame was recovered from a corrupt payload (resync
  /// mode): the DC map is partial and must not contribute a fingerprint.
  bool degraded = false;
  std::vector<float> dc;

  /// DC value of block (bx, by).
  float At(int bx, int by) const { return dc[static_cast<size_t>(by) * blocks_x + bx]; }

  /// Block mean luma in [0, 255] recovered from the DC coefficient.
  float BlockMean(int bx, int by) const { return At(bx, by) / 8.0f + 128.0f; }
};

/// \brief One key frame located by PartialDecoder::NextEncodedKeyFrame:
/// where it sits in the stream, and its still entropy-coded payload.
///
/// `payload` points into the buffer given to PartialDecoder::Open, so the
/// frame is valid only while that buffer is alive (the decoder object
/// itself may go away). DecodeKeyFrame turns it into a DcFrame on any
/// thread.
struct EncodedKeyFrame {
  int64_t frame_index = 0;  ///< position among *all* frames of the stream
  double timestamp = 0.0;   ///< seconds from stream start
  int blocks_x = 0;
  int blocks_y = 0;
  const uint8_t* payload = nullptr;  ///< the record's payload bytes
  size_t size = 0;                   ///< payload length in bytes
};

/// Counters of one decoding session (reset by Open).
struct PartialDecoderStats {
  int64_t key_frames = 0;        ///< key frames emitted (incl. degraded)
  int64_t p_frames_skipped = 0;  ///< P-frames skipped via the length field
  int64_t corruption_events = 0; ///< malformed headers/payloads encountered
  int64_t resync_scans = 0;      ///< forward scans for a frame boundary
  int64_t bytes_skipped = 0;     ///< bytes discarded while resyncing
  int64_t degraded_frames = 0;   ///< key frames emitted with a partial DC map
};

/// \brief Streams key-frame DC maps out of a compressed bit stream.
class PartialDecoder {
 public:
  /// Parses the stream header of \p data (not owned; must outlive this).
  Status Open(const uint8_t* data, size_t size);

  /// Stream metadata (valid after Open).
  const StreamHeader& header() const { return header_; }

  /// Switches between strict (default, off) and resync-on-corruption error
  /// handling. May be toggled at any point between NextKeyFrame calls.
  void set_resync_on_corruption(bool on) { resync_ = on; }
  /// True when resync-on-corruption is active.
  bool resync_on_corruption() const { return resync_; }

  /// Session counters (reset by Open).
  const PartialDecoderStats& stats() const { return stats_; }

  /// Attaches observability: subsequent decoding publishes the
  /// `vcd_decoder_*` counter family, the resync-latency histogram and the
  /// per-key-frame `vcd_decode_frame_ns` histogram into
  /// \p registry (not owned; must outlive this). Null detaches. The local
  /// `stats()` counters keep working either way.
  void set_metrics(obs::MetricsRegistry* registry) {
    metrics_ = obs::DecoderMetrics::Create(registry);
  }

  /// Extracts the next key frame's DC map into \p out. P-frames between key
  /// frames are skipped using the frame length fields without touching their
  /// payload. Returns NotFound at end of stream. In strict mode malformed
  /// data returns kCorruption; in resync mode the decoder scans forward
  /// for the next plausible frame and may emit `out->degraded = true`.
  /// Exactly NextEncodedKeyFrame's framing followed by DecodeKeyFrame,
  /// except that a strict-mode entropy failure leaves the decoder on the
  /// failing frame.
  Status NextKeyFrame(DcFrame* out);

  /// The framing step alone: walks the record markers and lengths to the
  /// next key frame (skipping P-frames, resynchronizing in resync mode, with
  /// NextKeyFrame's status codes and messages) and returns its position,
  /// timestamp, block grid and payload span without entropy-decoding it.
  /// Counts the key frame in stats(); the entropy walk and its corruption
  /// accounting are left to whoever runs DecodeKeyFrame.
  Status NextEncodedKeyFrame(EncodedKeyFrame* out);

  /// The decode step alone: the DC-only entropy walk of \p in's payload into
  /// \p out, reusing `out->dc`'s capacity. Depends on nothing but its
  /// arguments, so any thread may run it. On entropy damage returns
  /// kCorruption with the DC prefix decoded so far in `out->dc` (the rest
  /// zero) and `out->degraded` false; whether that prefix is kept as a
  /// degraded frame is the caller's policy.
  static Status DecodeKeyFrame(const EncodedKeyFrame& in, DcFrame* out);

  /// Convenience: extracts all key-frame DC maps in one call (strict mode).
  static Result<std::vector<DcFrame>> ExtractAll(const std::vector<uint8_t>& data);

 private:
  /// Scans forward from \p from for the next plausible frame header (a
  /// valid marker byte whose length field lands on the stream end or on
  /// another valid marker). Positions pos_ there and returns true, or
  /// exhausts the stream and returns false.
  bool ResyncFrom(size_t from);

  /// The framing loop shared by NextKeyFrame and NextEncodedKeyFrame: walks
  /// to the next key frame and describes it in \p out, leaving pos_ on its
  /// record (ConsumeKeyFrame steps past it).
  Status FrameKeyFrame(EncodedKeyFrame* out);

  /// Steps past the key-frame record FrameKeyFrame stopped on.
  void ConsumeKeyFrame(const EncodedKeyFrame& frame);

  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  size_t pos_ = 0;
  int64_t frame_index_ = 0;
  bool resync_ = false;
  StreamHeader header_;
  PartialDecoderStats stats_;
  obs::DecoderMetrics metrics_;
};

}  // namespace vcd::video
