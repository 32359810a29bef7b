#include "persist/bucket_log.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "persist/persist_manager.h"
#include "sdds/message.h"
#include "util/bytes.h"

namespace essdds::persist {
namespace {

#if ESSDDS_PERSIST

/// Fresh scratch directory per test, removed on teardown.
class BucketLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::path(::testing::TempDir()) /
            ("essdds_log_" +
             std::string(
                 ::testing::UnitTest::GetInstance()->current_test_info()->name())))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    key_ = Bytes(16, 0x42);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  std::unique_ptr<BucketLog> Open(const std::string& name, bool fresh,
                                  size_t checkpoint_min = 64 * 1024,
                                  bool fsync = false) {
    return BucketLog::Open(Path(name), /*bucket=*/0, /*create_level=*/0,
                           ByteSpan(key_), fresh, checkpoint_min, &metrics_,
                           fsync);
  }

  static Bytes FileImage(const std::string& path) {
    Bytes out;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    if (f == nullptr) return out;
    uint8_t buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
      out.insert(out.end(), buf, buf + n);
    }
    std::fclose(f);
    return out;
  }

  std::string dir_;
  Bytes key_;
  PersistMetrics metrics_;
};

TEST_F(BucketLogTest, FreshOpenWritesHeaderOnly) {
  auto log = Open("bucket-0.log", /*fresh=*/true);
  ASSERT_NE(log, nullptr);
  EXPECT_FALSE(log->crashed());
  EXPECT_EQ(log->epoch(), 0u);
  EXPECT_EQ(log->file_bytes(), 36u);

  const ReplayResult r = BucketLog::ReplayFile(log->path(), ByteSpan(key_));
  EXPECT_EQ(r.tail, ReplayResult::Tail::kClean);
  EXPECT_TRUE(r.records.empty());
  EXPECT_EQ(r.epoch, 0u);
  EXPECT_EQ(r.bucket, 0u);
}

TEST_F(BucketLogTest, EveryRecordTypeRoundTrips) {
  auto log = Open("bucket-0.log", /*fresh=*/true);
  ASSERT_NE(log, nullptr);

  ASSERT_TRUE(log->AppendPut(1, ToBytes("one")));
  ASSERT_TRUE(log->AppendPut(2, ToBytes("two")));
  ASSERT_TRUE(log->AppendPut(1, ToBytes("one-v2")));  // overwrite
  ASSERT_TRUE(log->AppendErase(2));

  std::vector<sdds::WireRecord> bulk;
  bulk.push_back({10, ToBytes("ten")});
  bulk.push_back({11, ToBytes("eleven")});
  bulk.push_back({12, ToBytes("twelve")});
  ASSERT_TRUE(log->AppendBulkPut(/*level=*/3, bulk));
  ASSERT_TRUE(log->AppendEraseBulk(/*level=*/4, {11, 999}));

  const ReplayResult r = BucketLog::ReplayFile(log->path(), ByteSpan(key_));
  EXPECT_EQ(r.tail, ReplayResult::Tail::kClean);
  EXPECT_EQ(r.replayed_records, 6u);
  EXPECT_EQ(r.level, 4u);
  EXPECT_FALSE(r.retired);

  std::map<uint64_t, Bytes> want;
  want[1] = ToBytes("one-v2");
  want[10] = ToBytes("ten");
  want[12] = ToBytes("twelve");
  EXPECT_EQ(r.records, want);
}

TEST_F(BucketLogTest, ClearRetiresTheBucket) {
  auto log = Open("bucket-0.log", /*fresh=*/true);
  ASSERT_NE(log, nullptr);
  ASSERT_TRUE(log->AppendPut(7, ToBytes("doomed")));
  ASSERT_TRUE(log->AppendClear());

  const ReplayResult r = BucketLog::ReplayFile(log->path(), ByteSpan(key_));
  EXPECT_EQ(r.tail, ReplayResult::Tail::kClean);
  EXPECT_TRUE(r.retired);
  EXPECT_TRUE(r.records.empty());
}

TEST_F(BucketLogTest, CheckpointCompactsAndBumpsEpoch) {
  auto log = Open("bucket-0.log", /*fresh=*/true);
  ASSERT_NE(log, nullptr);
  std::map<uint64_t, Bytes> state;
  for (uint64_t k = 0; k < 50; ++k) {
    state[k] = ToBytes("value-" + std::to_string(k));
    ASSERT_TRUE(log->AppendPut(k, ByteSpan(state[k])));
  }
  const uint64_t grown = log->file_bytes();

  ASSERT_TRUE(log->Checkpoint(/*level=*/2, /*retired=*/false, state));
  EXPECT_EQ(log->epoch(), 1u);
  EXPECT_LT(log->file_bytes(), grown) << "checkpoint did not compact";

  // Appends after the checkpoint replay on top of the snapshot.
  state[1000] = ToBytes("post-checkpoint");
  ASSERT_TRUE(log->AppendPut(1000, ByteSpan(state[1000])));
  ASSERT_TRUE(log->AppendErase(0));
  state.erase(0);

  const ReplayResult r = BucketLog::ReplayFile(log->path(), ByteSpan(key_));
  EXPECT_EQ(r.tail, ReplayResult::Tail::kClean);
  EXPECT_EQ(r.epoch, 1u);
  EXPECT_EQ(r.level, 2u);
  EXPECT_EQ(r.records, state);
}

TEST_F(BucketLogTest, MaybeCheckpointHonoursFloorAndDoubling) {
  auto log = Open("bucket-0.log", /*fresh=*/true, /*checkpoint_min=*/256);
  ASSERT_NE(log, nullptr);
  std::map<uint64_t, Bytes> state;
  state[1] = ToBytes("small");
  ASSERT_TRUE(log->AppendPut(1, ByteSpan(state[1])));

  // Below the floor: no rewrite regardless of ratio.
  log->MaybeCheckpoint(0, false, state);
  EXPECT_EQ(log->epoch(), 0u);

  // Grow past the floor (and past 2x the base size): the rewrite fires.
  for (uint64_t k = 2; k < 40; ++k) {
    state[k] = ToBytes("padding-padding-" + std::to_string(k));
    ASSERT_TRUE(log->AppendPut(k, ByteSpan(state[k])));
  }
  ASSERT_GT(log->file_bytes(), 512u);
  log->MaybeCheckpoint(0, false, state);
  EXPECT_EQ(log->epoch(), 1u);
  const uint64_t base = log->file_bytes();

  // Right after a checkpoint the file has not doubled: no rewrite.
  log->MaybeCheckpoint(0, false, state);
  EXPECT_EQ(log->epoch(), 1u);
  EXPECT_EQ(log->file_bytes(), base);
}

TEST_F(BucketLogTest, AdoptRepairsTornTailAndRetiresOldNonces) {
  std::map<uint64_t, Bytes> state;
  uint32_t old_epoch = 0;
  {
    auto log = Open("bucket-0.log", /*fresh=*/true);
    ASSERT_NE(log, nullptr);
    for (uint64_t k = 0; k < 10; ++k) {
      state[k] = ToBytes(std::string("v").append(std::to_string(k)));
      ASSERT_TRUE(log->AppendPut(k, ByteSpan(state[k])));
    }
    old_epoch = log->epoch();
  }
  // Tear the tail by hand: append half a frame of junk.
  {
    std::FILE* f = std::fopen(Path("bucket-0.log").c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const uint8_t junk[5] = {0x00, 0x00, 0x01, 0xAB, 0xCD};
    ASSERT_EQ(std::fwrite(junk, 1, sizeof junk, f), sizeof junk);
    std::fclose(f);
  }
  ASSERT_EQ(BucketLog::ReplayFile(Path("bucket-0.log"), ByteSpan(key_)).tail,
            ReplayResult::Tail::kTorn);

  // Adoption replays the valid prefix and rewrites the file as one clean
  // checkpoint under a fresh epoch.
  auto log = Open("bucket-0.log", /*fresh=*/false);
  ASSERT_NE(log, nullptr);
  EXPECT_FALSE(log->crashed());
  EXPECT_GT(log->epoch(), old_epoch);

  const ReplayResult r = BucketLog::ReplayFile(log->path(), ByteSpan(key_));
  EXPECT_EQ(r.tail, ReplayResult::Tail::kClean);
  EXPECT_EQ(r.records, state);
  EXPECT_EQ(r.replayed_records, 1u) << "adopt should leave one checkpoint frame";
}

TEST_F(BucketLogTest, AdoptPreservesCorruptImageAsSidecar) {
  {
    auto log = Open("bucket-0.log", /*fresh=*/true);
    ASSERT_NE(log, nullptr);
    ASSERT_TRUE(log->AppendPut(1, ToBytes("survives")));
    ASSERT_TRUE(log->AppendPut(2, ToBytes("in the bad frame")));
  }
  // Flip a ciphertext byte of the last frame: CRC mismatch -> corrupt tail.
  Bytes damaged = FileImage(Path("bucket-0.log"));
  damaged[damaged.size() - 10] ^= 0x40;
  {
    std::FILE* f = std::fopen(Path("bucket-0.log").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(damaged.data(), 1, damaged.size(), f),
              damaged.size());
    std::fclose(f);
  }
  ASSERT_EQ(BucketLog::ReplayFile(Path("bucket-0.log"), ByteSpan(key_)).tail,
            ReplayResult::Tail::kCorrupt);

  // Adoption still recovers the valid prefix — but the damaged original is
  // moved aside, not destroyed: if the "corruption" was really a wrong key
  // (config error), the ciphertext is the only way back.
  auto log = Open("bucket-0.log", /*fresh=*/false);
  ASSERT_NE(log, nullptr);
  EXPECT_FALSE(log->crashed());
  EXPECT_EQ(FileImage(Path("bucket-0.log.corrupt")), damaged);
  const ReplayResult r = BucketLog::ReplayFile(log->path(), ByteSpan(key_));
  EXPECT_EQ(r.tail, ReplayResult::Tail::kClean);
  EXPECT_EQ(r.records,
            (std::map<uint64_t, Bytes>{{1, ToBytes("survives")}}));

  // A second casualty numbers itself instead of clobbering the first.
  {
    std::FILE* f = std::fopen(Path("bucket-0.log").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(damaged.data(), 1, damaged.size(), f),
              damaged.size());
    std::fclose(f);
  }
  auto log2 = Open("bucket-0.log", /*fresh=*/false);
  ASSERT_NE(log2, nullptr);
  EXPECT_TRUE(std::filesystem::exists(Path("bucket-0.log.corrupt.1")));
  EXPECT_EQ(FileImage(Path("bucket-0.log.corrupt")), damaged);
}

TEST_F(BucketLogTest, TornTailIsNotPreserved) {
  {
    auto log = Open("bucket-0.log", /*fresh=*/true);
    ASSERT_NE(log, nullptr);
    ASSERT_TRUE(log->AppendPut(1, ToBytes("fine")));
  }
  {
    std::FILE* f = std::fopen(Path("bucket-0.log").c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const uint8_t junk[3] = {0x00, 0x00, 0x09};
    ASSERT_EQ(std::fwrite(junk, 1, sizeof junk, f), sizeof junk);
    std::fclose(f);
  }
  // A merely torn tail is the expected crash signature, fully explained by
  // the valid prefix — no sidecar clutter.
  auto log = Open("bucket-0.log", /*fresh=*/false);
  ASSERT_NE(log, nullptr);
  EXPECT_FALSE(std::filesystem::exists(Path("bucket-0.log.corrupt")));
}

TEST_F(BucketLogTest, ReopenedFileNeverReusesKeystream) {
  // Two incarnations at identical (epoch, frame) coordinates encrypting
  // identical plaintext: the per-incarnation salt must give unrelated
  // ciphertext. Under a fixed per-bucket key (the old scheme), the two
  // images would match byte-for-byte past the header, and XORing them would
  // hand an attacker the plaintext difference.
  const Bytes payload = ToBytes("identical-plaintext-either-run");
  auto frame_bytes = [&](const std::string& name) {
    auto log = Open(name, /*fresh=*/true);
    EXPECT_NE(log, nullptr);
    EXPECT_TRUE(log->AppendPut(1, ByteSpan(payload)));
    EXPECT_EQ(log->epoch(), 0u);
    Bytes image = FileImage(Path(name));
    return Bytes(image.begin() + 36, image.end());
  };
  const Bytes first = frame_bytes("bucket-0.log");
  std::filesystem::remove(Path("bucket-0.log"));
  const Bytes second = frame_bytes("bucket-0.log");
  ASSERT_EQ(first.size(), second.size());
  EXPECT_NE(first, second) << "keystream reused across incarnations";
}

TEST_F(BucketLogTest, FsyncModeRoundTrips) {
  // Functional smoke for the fsync policy: appends, checkpoints, and the
  // checkpoint rename all succeed with the sync calls in the path, and the
  // image replays identically.
  auto log = Open("bucket-0.log", /*fresh=*/true, /*checkpoint_min=*/64,
                  /*fsync=*/true);
  ASSERT_NE(log, nullptr);
  std::map<uint64_t, Bytes> state;
  state[1] = ToBytes("synced");
  ASSERT_TRUE(log->AppendPut(1, ByteSpan(state[1])));
  ASSERT_TRUE(log->Checkpoint(0, false, state));
  state[2] = ToBytes("post-checkpoint");
  ASSERT_TRUE(log->AppendPut(2, ByteSpan(state[2])));
  const ReplayResult r = BucketLog::ReplayFile(log->path(), ByteSpan(key_));
  EXPECT_EQ(r.tail, ReplayResult::Tail::kClean);
  EXPECT_EQ(r.records, state);
}

TEST_F(BucketLogTest, FreshOpenSupersedesExistingEpoch) {
  {
    auto log = Open("bucket-0.log", /*fresh=*/true);
    ASSERT_NE(log, nullptr);
    ASSERT_TRUE(log->AppendPut(1, ToBytes("stale")));
    ASSERT_TRUE(log->Checkpoint(0, false, {{1, ToBytes("stale")}}));
    ASSERT_EQ(log->epoch(), 1u);
  }
  // A reused bucket number opens fresh: the old records vanish and the epoch
  // continues past the prior one so (key, nonce) pairs never repeat.
  auto log = Open("bucket-0.log", /*fresh=*/true);
  ASSERT_NE(log, nullptr);
  EXPECT_EQ(log->epoch(), 2u);
  const ReplayResult r = BucketLog::ReplayFile(log->path(), ByteSpan(key_));
  EXPECT_EQ(r.tail, ReplayResult::Tail::kClean);
  EXPECT_TRUE(r.records.empty());
}

TEST_F(BucketLogTest, NoPlaintextPayloadBytesOnDisk) {
  // Distinctive needles long enough that a chance ciphertext collision is
  // (1/2^96-ish) impossible.
  const Bytes payload = ToBytes("TOP-SECRET-PAYLOAD-0123456789");
  const Bytes bulk_payload = ToBytes("ANOTHER-CLASSIFIED-RECORD-BODY");
  auto log = Open("bucket-0.log", /*fresh=*/true, /*checkpoint_min=*/64);
  ASSERT_NE(log, nullptr);
  ASSERT_TRUE(log->AppendPut(5, ByteSpan(payload)));
  std::vector<sdds::WireRecord> bulk;
  bulk.push_back({6, bulk_payload});
  ASSERT_TRUE(log->AppendBulkPut(0, bulk));
  std::map<uint64_t, Bytes> state = {{5, payload}, {6, bulk_payload}};
  ASSERT_TRUE(log->Checkpoint(0, false, state));

  const Bytes image = FileImage(log->path());
  for (const Bytes& needle : {payload, bulk_payload}) {
    auto it = std::search(image.begin(), image.end(), needle.begin(),
                          needle.end());
    EXPECT_EQ(it, image.end()) << "plaintext payload leaked to disk";
  }
  // And yet the encrypted image replays to exactly those payloads.
  const ReplayResult r = BucketLog::ReplayBytes(ByteSpan(image), ByteSpan(key_));
  EXPECT_EQ(r.records, state);
}

TEST_F(BucketLogTest, WrongKeyReplaysAsCorrupt) {
  auto log = Open("bucket-0.log", /*fresh=*/true);
  ASSERT_NE(log, nullptr);
  ASSERT_TRUE(log->AppendPut(1, ToBytes("sealed")));

  const Bytes wrong_key(16, 0x17);
  const ReplayResult r =
      BucketLog::ReplayFile(log->path(), ByteSpan(wrong_key));
  // The frame CRC covers the ciphertext, so the frame looks intact — but the
  // decrypted body is keystream garbage and must fail the parse, flagged.
  EXPECT_EQ(r.tail, ReplayResult::Tail::kCorrupt);
  EXPECT_TRUE(r.records.empty());
}

TEST_F(BucketLogTest, TruncateTearKillsTheLog) {
  auto log = Open("bucket-0.log", /*fresh=*/true);
  ASSERT_NE(log, nullptr);
  ASSERT_TRUE(log->AppendPut(1, ToBytes("acked")));
  const uint64_t acked_bytes = log->cumulative_bytes_written();

  log->ArmTear({.at_cumulative_byte = acked_bytes + 3, .corrupt = false});
  EXPECT_FALSE(log->AppendPut(2, ToBytes("lost")));
  EXPECT_TRUE(log->crashed());
  // The log is dead: every subsequent append fails too.
  EXPECT_FALSE(log->AppendPut(3, ToBytes("also lost")));
  EXPECT_FALSE(log->AppendErase(1));
  EXPECT_FALSE(log->Checkpoint(0, false, {}));

  const ReplayResult r = BucketLog::ReplayFile(log->path(), ByteSpan(key_));
  EXPECT_EQ(r.tail, ReplayResult::Tail::kTorn);
  EXPECT_EQ(r.records, (std::map<uint64_t, Bytes>{{1, ToBytes("acked")}}));
}

TEST_F(BucketLogTest, CorruptTearFlagsOnReplay) {
  auto log = Open("bucket-0.log", /*fresh=*/true);
  ASSERT_NE(log, nullptr);
  ASSERT_TRUE(log->AppendPut(1, ToBytes("acked")));

  log->ArmTear({.at_cumulative_byte = log->cumulative_bytes_written() + 6,
                .corrupt = true});
  EXPECT_FALSE(log->AppendPut(2, ToBytes("torn")));
  EXPECT_TRUE(log->crashed());

  const ReplayResult r = BucketLog::ReplayFile(log->path(), ByteSpan(key_));
  EXPECT_EQ(r.tail, ReplayResult::Tail::kCorrupt);
  EXPECT_EQ(r.records, (std::map<uint64_t, Bytes>{{1, ToBytes("acked")}}));
}

TEST_F(BucketLogTest, MetricsTrackFramesCheckpointsAndBytes) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  obs::MetricRegistry registry;
  PersistMetrics metrics;
  metrics.appended_frames = &registry.counter("persist.appended_frames");
  metrics.checkpoints = &registry.counter("persist.checkpoints");
  metrics.log_bytes = &registry.gauge("persist.log_bytes");

  auto log = BucketLog::Open(Path("bucket-0.log"), 0, 0, ByteSpan(key_),
                             /*fresh=*/true, 64 * 1024, &metrics);
  ASSERT_NE(log, nullptr);
  ASSERT_TRUE(log->AppendPut(1, ToBytes("a")));
  ASSERT_TRUE(log->AppendPut(2, ToBytes("b")));
  EXPECT_EQ(metrics.appended_frames->value(), 2u);
  EXPECT_EQ(metrics.total_bytes, static_cast<int64_t>(log->file_bytes()));

  ASSERT_TRUE(log->Checkpoint(0, false, {{1, ToBytes("a")}, {2, ToBytes("b")}}));
  EXPECT_EQ(metrics.checkpoints->value(), 1u);
  EXPECT_EQ(metrics.total_bytes, static_cast<int64_t>(log->file_bytes()));
}

// --- PersistManager: directory-level recovery ---

class PersistManagerTest : public BucketLogTest {};

TEST_F(PersistManagerTest, FreshDirectoryRecoversEmpty) {
  PersistManager pm({.dir = Path("data")}, nullptr);
  EXPECT_TRUE(pm.Recover().empty());
}

TEST_F(PersistManagerTest, RecoverRoundTripsLiveBuckets) {
  {
    PersistManager pm({.dir = Path("data")}, nullptr);
    BucketLog* b0 = pm.OpenBucketLog(0, 1, /*fresh=*/true);
    BucketLog* b1 = pm.OpenBucketLog(1, 1, /*fresh=*/true);
    ASSERT_NE(b0, nullptr);
    ASSERT_NE(b1, nullptr);
    ASSERT_TRUE(b0->AppendPut(2, ToBytes("even")));
    ASSERT_TRUE(b1->AppendPut(3, ToBytes("odd")));
    ASSERT_TRUE(b1->AppendPut(5, ToBytes("odd too")));
  }
  PersistManager pm({.dir = Path("data")}, nullptr);
  auto live = pm.Recover();
  ASSERT_EQ(live.size(), 2u);
  EXPECT_EQ(live[0].records,
            (std::map<uint64_t, Bytes>{{2, ToBytes("even")}}));
  EXPECT_EQ(live[1].records,
            (std::map<uint64_t, Bytes>{{3, ToBytes("odd")},
                                       {5, ToBytes("odd too")}}));
}

TEST_F(PersistManagerTest, RetiredBucketAboveLiveOnesIsSkipped) {
  {
    PersistManager pm({.dir = Path("data")}, nullptr);
    BucketLog* b0 = pm.OpenBucketLog(0, 0, /*fresh=*/true);
    BucketLog* b1 = pm.OpenBucketLog(1, 1, /*fresh=*/true);
    ASSERT_TRUE(b0->AppendPut(1, ToBytes("stays")));
    ASSERT_TRUE(b1->AppendPut(9, ToBytes("moves")));
    ASSERT_TRUE(b1->AppendClear());  // merge dissolved bucket 1
  }
  PersistManager pm({.dir = Path("data")}, nullptr);
  auto live = pm.Recover();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].records,
            (std::map<uint64_t, Bytes>{{1, ToBytes("stays")}}));
}

TEST_F(PersistManagerTest, StrayTmpFilesAreSwept) {
  PersistManager pm({.dir = Path("data")}, nullptr);
  const std::string tmp = pm.LogPath(0) + ".tmp";
  {
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("half a checkpoint", f);
    std::fclose(f);
  }
  PersistManager pm2({.dir = Path("data")}, nullptr);
  EXPECT_TRUE(pm2.Recover().empty());
  EXPECT_FALSE(std::filesystem::exists(tmp));
}

TEST_F(PersistManagerTest, HeaderBucketMismatchIsTreatedCorrupt) {
  {
    PersistManager pm({.dir = Path("data")}, nullptr);
    BucketLog* b0 = pm.OpenBucketLog(0, 0, /*fresh=*/true);
    ASSERT_TRUE(b0->AppendPut(1, ToBytes("misfiled")));
  }
  // A log whose header says bucket 0 but whose name claims bucket 1 must not
  // be replayed into bucket 1 — but note the name now decides the key, so the
  // decrypt already fails before the header cross-check matters.
  std::filesystem::rename(Path("data") + "/bucket-0.log",
                          Path("data") + "/bucket-1.log");
  PersistManager pm({.dir = Path("data")}, nullptr);
  EXPECT_TRUE(pm.Recover().empty());
}

TEST_F(PersistManagerTest, PerBucketKeysDiffer) {
  PersistManager pm({.dir = Path("data")}, nullptr);
  EXPECT_NE(pm.BucketKey(0), pm.BucketKey(1));
  EXPECT_EQ(pm.BucketKey(0).size(), 16u);
}

TEST_F(PersistManagerTest, MasterMismatchIsFlaggedAndDecryptsNothing) {
  {
    PersistManager pm({.dir = Path("data"), .master = ToBytes("master-A")},
                      nullptr);
    BucketLog* b0 = pm.OpenBucketLog(0, 0, /*fresh=*/true);
    ASSERT_TRUE(b0->AppendPut(1, ToBytes("sealed under A")));
  }
  // The plaintext header still reads, so the bucket comes back — but with
  // zero decrypted records and the corrupt tail counted, never with
  // garbage records silently accepted.
  obs::MetricRegistry registry;
  PersistManager pm({.dir = Path("data"), .master = ToBytes("master-B")},
                    &registry);
  auto live = pm.Recover();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_TRUE(live[0].records.empty()) << "wrong master must not decrypt";
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(registry.counter("persist.corrupt_tails").value(), 1u);
  }
}

#else  // !ESSDDS_PERSIST

TEST(BucketLogStubTest, EverythingNoOps) {
  EXPECT_FALSE(kPersistEnabled);
  EXPECT_EQ(BucketLog::Open("x", 0, 0, {}, true, 0, nullptr), nullptr);
  PersistManager pm({.dir = "unused"}, nullptr);
  EXPECT_TRUE(pm.Recover().empty());
  EXPECT_EQ(pm.OpenBucketLog(0, 0, true), nullptr);
}

#endif  // ESSDDS_PERSIST

}  // namespace
}  // namespace essdds::persist
