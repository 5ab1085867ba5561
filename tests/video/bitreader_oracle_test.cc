// Property tests: the word-at-a-time BitReader and the block readers built
// on it against the bit-serial reference (reference_bit_reader.h). Value,
// bit position, status code and message must agree after every read, on
// valid code streams cut at every byte, at every start offset, and on
// random bytes.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "reference_bit_reader.h"
#include "util/rng.h"
#include "video/bitstream.h"
#include "video/codec_internal.h"

namespace vcd::video {
namespace {

using testing::ReferenceBitReader;

enum class OpKind { kBits, kUE, kSE };

struct Op {
  OpKind kind;
  int nbits = 0;  // kBits only
};

/// A UE value whose code has exactly \p zeros prefix zeros.
uint32_t UeWithPrefix(Rng* rng, int zeros) {
  const uint64_t lo = (uint64_t{1} << zeros) - 1;
  return static_cast<uint32_t>(lo + rng->Uniform(uint64_t{1} << zeros));
}

/// Prefix length 0..31, with the fast path's 28/29 boundary and the
/// 31-zero maximum drawn often.
int DrawPrefix(Rng* rng) {
  switch (rng->Uniform(4)) {
    case 0:
      return 27 + static_cast<int>(rng->Uniform(5));  // 27..31
    case 1:
      return static_cast<int>(rng->Uniform(32));
    default:
      return static_cast<int>(rng->Uniform(6));  // the common short codes
  }
}

/// Writes \p lead junk bits, then a random sequence of codes; returns the
/// read sequence that walks it.
std::vector<Op> WriteRandomCodes(Rng* rng, int lead, int count, BitWriter* w) {
  if (lead > 0) w->WriteBits(static_cast<uint32_t>(rng->Uniform(1u << lead)), lead);
  std::vector<Op> ops;
  for (int i = 0; i < count; ++i) {
    switch (rng->Uniform(3)) {
      case 0: {
        const int n = static_cast<int>(rng->Uniform(33));  // 0..32
        const uint64_t v = rng->Next();
        if (n > 0) w->WriteBits(static_cast<uint32_t>(v >> (64 - n)), n);
        ops.push_back({OpKind::kBits, n});
        break;
      }
      case 1:
        w->WriteUE(UeWithPrefix(rng, DrawPrefix(rng)));
        ops.push_back({OpKind::kUE});
        break;
      default: {
        const uint32_t mapped = UeWithPrefix(rng, DrawPrefix(rng));
        const auto half = static_cast<int32_t>((uint64_t{mapped} + 1) / 2);
        w->WriteSE((mapped & 1) != 0 ? half : -half);
        ops.push_back({OpKind::kSE});
        break;
      }
    }
  }
  return ops;
}

std::vector<Op> RandomOps(Rng* rng, int count) {
  std::vector<Op> ops;
  for (int i = 0; i < count; ++i) {
    const auto kind = static_cast<OpKind>(rng->Uniform(3));
    ops.push_back({kind, kind == OpKind::kBits ? static_cast<int>(rng->Uniform(33)) : 0});
  }
  return ops;
}

/// Seeks both readers to \p start and runs \p ops on both, comparing after
/// every step (reads go on after a failure: the cursor must agree there
/// too). \p bytes is the whole buffer, so a read past it is a heap overflow
/// under ASan.
void ExpectSameReads(const std::vector<uint8_t>& bytes, size_t start,
                     const std::vector<Op>& ops, const std::string& where) {
  BitReader fast(bytes.data(), bytes.size());
  ReferenceBitReader ref(bytes.data(), bytes.size());
  const Status fs = fast.SeekToBit(start);
  const Status rs = ref.SeekToBit(start);
  ASSERT_EQ(fs.code(), rs.code()) << where;
  for (size_t i = 0; i < ops.size(); ++i) {
    Status f, r;
    int64_t fv = -7, rv = -7;
    switch (ops[i].kind) {
      case OpKind::kBits: {
        uint32_t a = 0xDEADBEEF, b = 0xDEADBEEF;
        f = fast.ReadBits(ops[i].nbits, &a);
        r = ref.ReadBits(ops[i].nbits, &b);
        fv = a;
        rv = b;
        break;
      }
      case OpKind::kUE: {
        uint32_t a = 0xDEADBEEF, b = 0xDEADBEEF;
        f = fast.ReadUE(&a);
        r = ref.ReadUE(&b);
        fv = a;
        rv = b;
        break;
      }
      case OpKind::kSE: {
        int32_t a = -12345, b = -12345;
        f = fast.ReadSE(&a);
        r = ref.ReadSE(&b);
        fv = a;
        rv = b;
        break;
      }
    }
    ASSERT_EQ(f.code(), r.code()) << where << " op " << i;
    ASSERT_EQ(f.message(), r.message()) << where << " op " << i;
    ASSERT_EQ(fv, rv) << where << " op " << i;
    ASSERT_EQ(fast.bit_pos(), ref.bit_pos()) << where << " op " << i;
    ASSERT_EQ(fast.AtEnd(), ref.AtEnd()) << where << " op " << i;
  }
}

TEST(BitReaderOracleTest, ExpGolombCodesEveryOffsetEveryTruncation) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    for (int lead = 0; lead < 8; ++lead) {
      Rng rng(seed * 131 + static_cast<uint64_t>(lead));
      BitWriter w;
      const std::vector<Op> ops = WriteRandomCodes(&rng, lead, 24, &w);
      const std::vector<uint8_t> full = w.Finish();
      // Every byte length, so each code in turn sits in the last 8 bytes
      // (the byte-loop window) and is cut off at each of its bytes.
      for (size_t len = 0; len <= full.size(); ++len) {
        const std::vector<uint8_t> cut(full.begin(),
                                       full.begin() + static_cast<ptrdiff_t>(len));
        ExpectSameReads(cut, static_cast<size_t>(lead), ops,
                        "seed " + std::to_string(seed) + " lead " +
                            std::to_string(lead) + " len " + std::to_string(len));
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(BitReaderOracleTest, FullStreamsDecodeEveryCode) {
  // The uncut streams must decode without a single error.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    BitWriter w;
    const std::vector<Op> ops = WriteRandomCodes(&rng, 0, 64, &w);
    const std::vector<uint8_t> bytes = w.Finish();
    BitReader r(bytes.data(), bytes.size());
    for (const Op& op : ops) {
      uint32_t u = 0;
      int32_t s = 0;
      Status st = op.kind == OpKind::kBits ? r.ReadBits(op.nbits, &u)
                  : op.kind == OpKind::kUE ? r.ReadUE(&u)
                                           : r.ReadSE(&s);
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
    EXPECT_EQ((r.bit_pos() + 7) / 8, bytes.size());
  }
}

TEST(BitReaderOracleTest, FastPathBoundaryCodes) {
  // Codes with 28 (fast) and 29 (slow) prefix zeros at every bit offset,
  // whole and one byte short.
  for (int zeros : {27, 28, 29, 30, 31}) {
    for (int lead = 0; lead < 8; ++lead) {
      Rng rng(static_cast<uint64_t>(zeros * 8 + lead));
      BitWriter w;
      if (lead > 0) w.WriteBits(0, lead);
      w.WriteUE(UeWithPrefix(&rng, zeros));
      w.WriteUE(UeWithPrefix(&rng, 0));
      const std::vector<uint8_t> full = w.Finish();
      const std::vector<Op> ops = {{OpKind::kUE}, {OpKind::kUE}, {OpKind::kBits, 1}};
      ExpectSameReads(full, static_cast<size_t>(lead), ops, "whole");
      const std::vector<uint8_t> shorter(full.begin(), full.end() - 1);
      ExpectSameReads(shorter, static_cast<size_t>(lead), ops, "short");
      if (HasFatalFailure()) return;
    }
  }
}

TEST(BitReaderOracleTest, RandomBytes) {
  // Sparse-to-dense zero runs: long and over-long prefixes, exhaustion
  // mid-prefix and mid-suffix.
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const double zero_share = static_cast<double>(seed % 5) / 4.0;  // 0..1
    std::vector<uint8_t> bytes(static_cast<size_t>(rng.Uniform(48)));
    for (uint8_t& b : bytes) {
      b = rng.UniformDouble() < zero_share ? 0 : static_cast<uint8_t>(rng.Next());
    }
    const std::vector<Op> ops = RandomOps(&rng, 40);
    for (size_t start = 0; start < 8; ++start) {
      ExpectSameReads(bytes, start, ops, "seed " + std::to_string(seed));
      if (HasFatalFailure()) return;
    }
  }
}

/// Reads blocks with the production and reference readers until one fails,
/// comparing every block's coefficients (or DC), prev_dc, status and cursor.
void ExpectSameBlocks(const std::vector<uint8_t>& bytes, const std::string& where) {
  BitReader fast(bytes.data(), bytes.size());
  ReferenceBitReader ref(bytes.data(), bytes.size());
  BitReader fast_dc(bytes.data(), bytes.size());
  ReferenceBitReader ref_dc(bytes.data(), bytes.size());
  int32_t fprev = 0, rprev = 0, fprev_dc = 0, rprev_dc = 0;
  for (int block = 0;; ++block) {
    std::array<int32_t, 64> fq{}, rq{};
    const Status f = internal::ReadBlock(&fast, &fprev, &fq);
    const Status r = testing::ReferenceReadBlock(&ref, &rprev, &rq);
    ASSERT_EQ(f.code(), r.code()) << where << " block " << block;
    ASSERT_EQ(f.message(), r.message()) << where << " block " << block;
    ASSERT_EQ(fprev, rprev) << where << " block " << block;
    ASSERT_EQ(fast.bit_pos(), ref.bit_pos()) << where << " block " << block;
    if (f.ok()) {
      ASSERT_EQ(fq, rq) << where << " block " << block;
    }

    int32_t fdc = 0, rdc = 0;
    const Status fd = internal::ReadBlockDcOnly(&fast_dc, &fprev_dc, &fdc);
    const Status rd = testing::ReferenceReadBlockDcOnly(&ref_dc, &rprev_dc, &rdc);
    ASSERT_EQ(fd.code(), rd.code()) << where << " dc block " << block;
    ASSERT_EQ(fd.message(), rd.message()) << where << " dc block " << block;
    ASSERT_EQ(fprev_dc, rprev_dc) << where << " dc block " << block;
    ASSERT_EQ(fast_dc.bit_pos(), ref_dc.bit_pos()) << where << " dc block " << block;
    if (fd.ok()) {
      ASSERT_EQ(fdc, rdc) << where << " dc block " << block;
    }
    // The skimmer and the full reader walk the same bits.
    ASSERT_EQ(fd.code(), f.code()) << where << " block " << block;
    ASSERT_EQ(fast_dc.bit_pos(), fast.bit_pos()) << where << " block " << block;
    if (!f.ok()) return;
  }
}

TEST(BlockReaderOracleTest, ValidAndMutatedBlocks) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    BitWriter w;
    int32_t prev = 0;
    for (int b = 0; b < 12; ++b) {
      std::array<int32_t, 64> q{};
      q[0] = static_cast<int32_t>(rng.UniformInt(-300, 300));
      const int nonzero = static_cast<int>(rng.Uniform(20));
      for (int i = 0; i < nonzero; ++i) {
        const int32_t level = static_cast<int32_t>(rng.UniformInt(-40, 40));
        q[static_cast<size_t>(1 + rng.Uniform(63))] = level == 0 ? 1 : level;
      }
      internal::WriteBlock(q, &prev, &w);
    }
    std::vector<uint8_t> bytes = w.Finish();
    ExpectSameBlocks(bytes, "valid seed " + std::to_string(seed));
    if (HasFatalFailure()) return;
    // Bit flips, a zeroed span and a cut: overruns, zero levels, long
    // prefixes and exhaustion mid-block.
    for (int m = 0; m < 20; ++m) {
      std::vector<uint8_t> bad = bytes;
      const int flips = 1 + static_cast<int>(rng.Uniform(4));
      for (int i = 0; i < flips && !bad.empty(); ++i) {
        bad[rng.Uniform(bad.size())] ^= static_cast<uint8_t>(1u << rng.Uniform(8));
      }
      if (m % 3 == 0 && !bad.empty()) {
        const size_t at = rng.Uniform(bad.size());
        const size_t n = std::min<size_t>(bad.size() - at, 1 + rng.Uniform(12));
        std::fill_n(bad.begin() + static_cast<ptrdiff_t>(at), n, uint8_t{0});
      }
      if (m % 2 == 0) bad.resize(rng.Uniform(bad.size() + 1));
      ExpectSameBlocks(bad, "seed " + std::to_string(seed) + " mutation " +
                                std::to_string(m));
      if (HasFatalFailure()) return;
    }
  }
}

TEST(BlockReaderTest, HugeRunIsAnOverrun) {
  // A run code of 2^32 - 16: as an int it is -16, which must not walk the
  // coefficient index backwards.
  for (uint32_t run : {0xFFFFFFF0u, 0x80000000u, 0x7FFFFFFFu, 64u}) {
    BitWriter w;
    w.WriteSE(3);    // DC diff
    w.WriteUE(run);  // hostile run
    w.WriteSE(5);    // a level
    w.WriteUE(63);   // end of block
    const std::vector<uint8_t> bytes = w.Finish();
    BitReader br(bytes.data(), bytes.size());
    int32_t prev = 0;
    std::array<int32_t, 64> q{};
    const Status st = internal::ReadBlock(&br, &prev, &q);
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << run;
    EXPECT_EQ(st.message(), "AC run overruns block") << run;
    BitReader br_dc(bytes.data(), bytes.size());
    int32_t prev_dc = 0, dc = 0;
    EXPECT_EQ(internal::ReadBlockDcOnly(&br_dc, &prev_dc, &dc).message(),
              "AC run overruns block")
        << run;
    ExpectSameBlocks(bytes, "run " + std::to_string(run));
  }
}

TEST(BlockReaderTest, HostileDcSumWraps) {
  // Three DC diffs of 2^30 + 1 push the DPCM sum past INT32_MAX: the sum
  // wraps (two's complement) instead of overflowing (UBSan checks this).
  BitWriter w;
  for (int b = 0; b < 3; ++b) {
    w.WriteSE((1 << 30) + 1);
    w.WriteUE(63);
  }
  const std::vector<uint8_t> bytes = w.Finish();
  BitReader br(bytes.data(), bytes.size());
  int32_t prev = 0, dc = 0;
  for (int b = 0; b < 3; ++b) ASSERT_TRUE(internal::ReadBlockDcOnly(&br, &prev, &dc).ok());
  EXPECT_EQ(dc, static_cast<int32_t>(3 * ((int64_t{1} << 30) + 1) - (int64_t{1} << 32)));
  ExpectSameBlocks(bytes, "dc wrap");
}

}  // namespace
}  // namespace vcd::video
