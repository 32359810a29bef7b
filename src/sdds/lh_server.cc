#include "sdds/lh_server.h"

#include <string>
#include <utility>

#include "sdds/parity_server.h"
#include "sdds/scan_executor.h"

namespace essdds::sdds {

namespace {

/// The bucket a dissolved (or never-created) bucket folds onto: clearing
/// the top set bit is exactly the parent relation of linear hashing.
uint64_t ParentBucket(uint64_t bucket) {
  ESSDDS_CHECK(bucket != 0) << "bucket 0 has no parent";
  uint64_t top = uint64_t{1} << 63;
  while ((bucket & top) == 0) top >>= 1;
  return bucket & ~top;
}

/// Messages a reconstruction freeze parks: everything that would change
/// the record map (and thereby emit parity) while the gather snapshots it.
bool MutatesRecords(MsgType t) {
  switch (t) {
    case MsgType::kInsert:
    case MsgType::kDelete:
    case MsgType::kSplit:
    case MsgType::kMerge:
    case MsgType::kMoveRecords:
    case MsgType::kMergeRecords:
      return true;
    default:
      return false;
  }
}

}  // namespace

LhBucketServer::LhBucketServer(LhRuntime* runtime, const LhOptions& options,
                               uint64_t bucket_number, uint32_t level)
    : runtime_(runtime),
      options_(options),
      bucket_number_(bucket_number),
      level_(level),
      // Every bucket but the root is born of a split: it owns nothing until
      // its kMoveRecords bulk load lands, and must not serve before then.
      loading_(bucket_number != 0),
      parity_level_emitted_(level) {
  ESSDDS_CHECK(runtime != nullptr);
}

uint64_t LhBucketServer::RouteFor(uint64_t key) const {
  // LH* server address verification (Litwin/Neimat/Schneider 1996): compute
  // the address under this bucket's own level; if it differs, a second
  // candidate under level-1 may lie closer along the split order. This rule
  // bounds forwarding at two hops for any client image.
  const uint64_t image = LhKeyImage(key, options_);
  const uint64_t a_prime = image & ((uint64_t{1} << level_) - 1);
  if (a_prime == bucket_number_) return bucket_number_;
  if (level_ >= 1) {
    const uint64_t a_second = image & ((uint64_t{1} << (level_ - 1)) - 1);
    if (a_second > bucket_number_ && a_second < a_prime) return a_second;
  }
  return a_prime;
}

void LhBucketServer::RestoreRecovered(std::map<uint64_t, Bytes> records) {
  records_ = std::move(records);
  columns_.RebuildFrom(records_);
  // A recovered bucket owns its records already; nothing is in flight
  // toward it, so it serves immediately.
  loading_ = false;
  if (ParityEnabled()) {
    // Restart path: the parity rows are re-encoded in-process from this
    // state (LhSystem::SeedParityFromData), so the rank table restarts
    // fresh and sequential and the update sequence restarts with it.
    rank_of_.clear();
    free_ranks_.clear();
    next_rank_ = 0;
    for (const auto& [key, value] : records_) {
      (void)value;
      rank_of_[key] = next_rank_++;
    }
    parity_seq_ = 0;
    parity_level_emitted_ = level_;
  }
}

void LhBucketServer::OnMessage(Message& msg, Network& net) {
  if (halted_) {
    // The durable log tore mid-append: this site is crashed. A crashed
    // process neither acks nor forwards — peers see silence until a restart
    // replays the log.
    return;
  }
  // Liveness probes and reconstruction control bypass every parking state:
  // a frozen or still-loading bucket is alive and must say so, and the
  // recovery proxy's freeze/release must always get through.
  if (msg.type == MsgType::kPing) {
    HandlePing(msg, net);
    return;
  }
  if (msg.type == MsgType::kReconstructRequest) {
    HandleReconstructRequest(msg, net);
    return;
  }
  if (frozen_ && MutatesRecords(msg.type)) {
    // A reconstruction gather snapshotted this bucket's rank buffers;
    // mutating now would move the group's parity out from under the
    // decode. Reads still serve. Replayed at the release.
    frozen_parked_.push_back(std::move(msg));
    return;
  }
  if (loading_ && msg.type != MsgType::kMoveRecords) {
    // The split that created this bucket hasn't delivered its records yet:
    // serving now would answer from an empty map, and a racing merge would
    // dissolve the bucket around the in-flight transfer. Park everything
    // until the load lands, then replay in arrival order.
    parked_.push_back(std::move(msg));
    return;
  }
  switch (msg.type) {
    case MsgType::kInsert:
    case MsgType::kLookup:
    case MsgType::kDelete:
      HandleKeyOp(msg, net);
      return;
    case MsgType::kScan:
      HandleScan(msg, net);
      return;
    case MsgType::kSplit:
      HandleSplit(msg, net);
      return;
    case MsgType::kMoveRecords:
      HandleMoveRecords(msg, net);
      return;
    case MsgType::kMerge:
      HandleMerge(msg, net);
      return;
    case MsgType::kMergeRecords:
      HandleMergeRecords(msg, net);
      return;
    default:
      ESSDDS_CHECK(false) << "bucket server got unexpected message "
                          << MsgTypeToString(msg.type);
  }
}

void LhBucketServer::HandleKeyOp(Message& msg, Network& net) {
  // A retired bucket was dissolved into its parent by a merge; a stale
  // client whose image is ahead of the file can still address it. Its
  // records live at the parent now — forward there instead of serving a
  // wrong answer from the empty local map.
  uint64_t route = retired_ ? ParentBucket(bucket_number_) : RouteFor(msg.key);
  if (route != bucket_number_) {
    // Address verification ran under this bucket's level; after a merge the
    // computed bucket may no longer exist. Fold onto the parent chain (the
    // bucket that absorbed its records) rather than aborting.
    while (!runtime_->BucketExists(route)) route = ParentBucket(route);
    Message fwd = msg;
    fwd.from = site_;
    fwd.to = runtime_->SiteOfBucket(route);
    fwd.bucket_to_split = route;  // addressed bucket, for degraded routing
    fwd.hops = msg.hops + 1;
    if (msg.hops == 0) {
      // Remember the first mis-addressed bucket; the serving bucket echoes
      // it in the image adjustment so the client can repair its image.
      fwd.has_iam = true;
      fwd.iam_level = level_;
      fwd.iam_address = bucket_number_;
    }
    net.Send(std::move(fwd));
    return;
  }

  Message reply;
  reply.from = site_;
  reply.to = msg.reply_to;
  reply.request_id = msg.request_id;
  reply.trace_id = msg.trace_id;
  reply.key = msg.key;
  if (msg.hops > 0) {
    reply.has_iam = true;
    reply.iam_level = msg.iam_level;
    reply.iam_address = msg.iam_address;
  }

  switch (msg.type) {
    case MsgType::kInsert: {
      // Durability before acknowledgement: the record reaches the log
      // before the map, the ack, or the overflow report. A torn append
      // halts the site with the insert unacknowledged — the client retries
      // against the restarted site.
      if (log_ != nullptr && !log_->AppendPut(msg.key, msg.value)) {
        Halt();
        return;
      }
      std::vector<ParityOp> parity_ops;
      if (ParityEnabled()) parity_ops.push_back(MakeUpsertOp(msg.key, msg.value));
      AboutToMutateRecords(net);
      auto [it, inserted] =
          records_.insert_or_assign(msg.key, std::move(msg.value));
      columns_.Upsert(msg.key, it->second);
      UpdateRecordGauge(net);
      EmitParity(net, std::move(parity_ops), false, msg.trace_id);
      reply.type = MsgType::kInsertAck;
      reply.found = !inserted;  // true when an existing record was replaced
      net.Send(std::move(reply));
      MaybeReportOverflow(net, msg.trace_id);
      if (log_ != nullptr) log_->MaybeCheckpoint(level_, retired_, records_);
      return;
    }
    case MsgType::kLookup: {
      reply.type = MsgType::kLookupReply;
      auto it = records_.find(msg.key);
      reply.found = it != records_.end();
      if (reply.found) reply.value = it->second;
      net.Send(std::move(reply));
      return;
    }
    case MsgType::kDelete: {
      if (log_ != nullptr && !log_->AppendErase(msg.key)) {
        Halt();
        return;
      }
      std::vector<ParityOp> parity_ops;
      if (ParityEnabled() && records_.count(msg.key)) {
        parity_ops.push_back(MakeEraseOp(msg.key));
      }
      AboutToMutateRecords(net);
      reply.type = MsgType::kDeleteAck;
      reply.found = records_.erase(msg.key) > 0;
      columns_.Erase(msg.key);
      UpdateRecordGauge(net);
      EmitParity(net, std::move(parity_ops), false, msg.trace_id);
      net.Send(std::move(reply));
      MaybeReportUnderflow(net, msg.trace_id);
      if (log_ != nullptr) log_->MaybeCheckpoint(level_, retired_, records_);
      return;
    }
    default:
      ESSDDS_CHECK(false);
  }
}

void LhBucketServer::HandleScan(Message& msg, Network& net) {
  if (retired_) {
    // Dissolved by a merge: the parent owns the records now (and answers
    // under its own bucket number, so the client's per-bucket dedup still
    // sees one live reply per bucket).
    Message fwd = msg;
    fwd.from = site_;
    fwd.to = runtime_->SiteOfBucket(ParentBucket(bucket_number_));
    fwd.key = ParentBucket(bucket_number_);
    fwd.hops = msg.hops + 1;
    net.Send(std::move(fwd));
    return;
  }

  // Propagate to every split descendant the sender's image did not cover.
  // Each existing bucket receives the scan exactly once: the client covers
  // its image, and each bucket covers the children created by its own
  // splits past the level the sender assumed. A child dissolved by a
  // concurrent merge no longer holds records — skip it.
  for (uint32_t l = msg.assumed_level; l < level_; ++l) {
    const uint64_t child = bucket_number_ + (uint64_t{1} << l);
    if (!runtime_->BucketExists(child)) continue;
    Message fwd = msg;
    fwd.from = site_;
    fwd.to = runtime_->SiteOfBucket(child);
    fwd.key = child;  // intended bucket, for degraded-mode routing
    fwd.assumed_level = l + 1;
    fwd.hops = msg.hops + 1;
    net.Send(std::move(fwd));
  }

  ScanTask task;
  task.bucket = bucket_number_;
  task.columns = columns_.slice();
  task.filter = &runtime_->FilterById(msg.filter_id);
  task.arg = Bytes(msg.filter_arg.begin(), msg.filter_arg.end());
  task.live_generation = &mutation_generation_;
  task.enqueue_generation = mutation_generation_;
  task.reply.type = MsgType::kScanReply;
  task.reply.from = site_;
  task.reply.to = msg.reply_to;
  task.reply.request_id = msg.request_id;
  task.reply.trace_id = msg.trace_id;
  task.reply.key = bucket_number_;  // lets the client attribute hits to buckets
  // Piggyback this bucket's level, snapshotted at forward time: a client
  // without a quiescence barrier (sockets) derives from it exactly which
  // children the scan was propagated to and awaits those replies too.
  task.reply.new_level = level_;
  if (net.deferred_scan_mode()) {
    // Parallel scan mode: evaluation runs off the messaging path once the
    // initiator drains the batch; the reply is sent then.
    net.EnqueueScanTask(std::move(task));
  } else {
    ExecuteScanTask(task);
    net.Send(std::move(task.reply));
  }
}

void LhBucketServer::HandleSplit(const Message& msg, Network& net) {
  ESSDDS_CHECK(msg.bucket_to_split == bucket_number_);
  if (msg.new_level != level_ + 1) {
    // The coordinator computed this split against a level this bucket has
    // not reached yet: the merge record transfer that steps the level down
    // (sent by the dissolving child, on a different link than the
    // coordinator's order) is still in flight. Hold the split until it
    // lands — splitting now would move the wrong key range.
    ESSDDS_CHECK(msg.new_level <= level_)
        << "split level mismatch: coordinator " << msg.new_level
        << " vs local " << level_ + 1;
    stashed_control_.push_back(msg);
    return;
  }
  const uint64_t new_bucket = msg.key;
  // Compute the carve-out first so the log records (explicit key list + the
  // stepped-up level) land before the record map shrinks: replay never needs
  // to re-run the hash. A tear in either log write halts the site with the
  // pre-split state still the durable truth.
  const uint64_t mask = (uint64_t{1} << msg.new_level) - 1;
  std::vector<uint64_t> moved_keys;
  for (const auto& [key, value] : records_) {
    if ((LhKeyImage(key, options_) & mask) == new_bucket) {
      moved_keys.push_back(key);
    }
  }
  // Deferred scans must resolve against the pre-split content before any
  // value is moved out of the record map below.
  AboutToMutateRecords(net);

  Message move;
  move.type = MsgType::kMoveRecords;
  move.from = site_;
  move.to = runtime_->SiteOfBucket(new_bucket);
  move.key = new_bucket;  // lets a recovery proxy identify the target
  move.trace_id = msg.trace_id;
  move.records.reserve(moved_keys.size());
  for (uint64_t key : moved_keys) {
    move.records.push_back(WireRecord{key, std::move(records_[key])});
  }
  // Two-phase durable transfer: the receiving bucket's log gets the
  // bulk-put BEFORE this bucket logs the erase. A crash between the two
  // leaves the moved records in BOTH logs — the new bucket's copy is
  // dropped by the recovery repair rule (its parent's level still predates
  // the split) — never in neither, which would be silent loss of acked
  // records.
  if (log_ != nullptr) {
    persist::BucketLog* peer = runtime_->LogOfBucket(new_bucket);
    if (peer != nullptr) {
      if (!peer->AppendBulkPut(msg.new_level, move.records)) {
        Halt();
        return;
      }
      move.records_durable = true;
    }
    if (!log_->AppendEraseBulk(msg.new_level, moved_keys)) {
      Halt();
      return;
    }
  }
  level_ = msg.new_level;
  for (uint64_t key : moved_keys) records_.erase(key);
  // Split carve-out removes a whole key range; per-record column erases
  // would memmove the flat arrays once per moved record, so repack instead.
  columns_.RebuildFrom(records_);
  UpdateRecordGauge(net);
  if (ParityEnabled()) {
    // One parity update for the whole carve-out, stamped with the stepped-up
    // level (the values now live in the transfer message).
    std::vector<ParityOp> parity_ops;
    parity_ops.reserve(move.records.size());
    for (const WireRecord& r : move.records) {
      ParityOp op = MakeEraseOp(r.key);
      op.delta = RankBuffer(r.key, r.value);
      parity_ops.push_back(std::move(op));
    }
    EmitParity(net, std::move(parity_ops), false, msg.trace_id);
  }
  if (log_ != nullptr) log_->MaybeCheckpoint(level_, retired_, records_);
  net.Send(std::move(move));

  Message done;
  done.type = MsgType::kSplitDone;
  done.from = site_;
  done.to = runtime_->CoordinatorSite();
  done.key = bucket_number_;
  done.trace_id = msg.trace_id;
  net.Send(std::move(done));
}

void LhBucketServer::HandleMoveRecords(Message& msg, Network& net) {
  // Bulk load during a split: records arrive pre-addressed, no overflow
  // report (a subsequent regular insert re-checks capacity). The message is
  // ours to cannibalize — adopt the values instead of deep-copying them
  // (the log append below only reads them). When the sender already wrote
  // the bulk-put into this bucket's log (two-phase transfer), appending it
  // again would only store a redundant duplicate frame.
  if (!msg.records_durable && log_ != nullptr &&
      !log_->AppendBulkPut(level_, msg.records)) {
    Halt();
    return;
  }
  std::vector<ParityOp> parity_ops;
  if (ParityEnabled()) {
    parity_ops.reserve(msg.records.size());
    for (const WireRecord& r : msg.records) {
      parity_ops.push_back(MakeUpsertOp(r.key, r.value));
    }
  }
  const bool was_loading = loading_;
  AboutToMutateRecords(net);
  for (WireRecord& r : msg.records) {
    records_[r.key] = std::move(r.value);
  }
  columns_.RebuildFrom(records_);
  UpdateRecordGauge(net);
  // The loading transition must reach the parity sites even when the
  // transfer is empty — their member state mirrors it for reconstruction.
  EmitParity(net, std::move(parity_ops), was_loading, msg.trace_id);
  if (log_ != nullptr) log_->MaybeCheckpoint(level_, retired_, records_);
  if (loading_) {
    loading_ = false;
    // Replay whatever raced the bulk load, in arrival order. Replays may
    // send (replies, forwards, even a parked kMerge's transfer), which the
    // network schedules as usual.
    std::vector<Message> replay = std::move(parked_);
    parked_.clear();
    for (Message& m : replay) OnMessage(m, net);
  }
}

void LhBucketServer::HandleMerge(const Message& msg, Network& net) {
  if (msg.new_level + 1 != level_) {
    // The coordinator dissolves this bucket assuming level new_level + 1,
    // but a merge record transfer INTO this bucket (it was the parent of an
    // earlier merge) is still in flight. Dissolving now would strand that
    // transfer at a retired bucket; wait for the level to step down first.
    ESSDDS_CHECK(msg.new_level + 1 < level_)
        << "merge level mismatch: coordinator " << msg.new_level + 1
        << " vs local " << level_;
    stashed_control_.push_back(msg);
    return;
  }
  // This bucket dissolves: every record returns to the parent it split off
  // from, and the parent's level steps back down. Deferred scans resolve
  // first (the move below empties the values), then the transfer goes to
  // the logs two-phase: the parent's bulk-put lands BEFORE this bucket's
  // kClear. A crash between the two leaves the records in both logs — the
  // still-live victim is dropped by the recovery repair rule (the parent's
  // stepped-down level gives the interruption away) — never in neither. A
  // replayed kClear marks the bucket retired, so recovery never resurrects
  // records the parent now owns.
  AboutToMutateRecords(net);
  const uint64_t parent = msg.key;
  Message move;
  move.type = MsgType::kMergeRecords;
  move.from = site_;
  move.to = runtime_->SiteOfBucket(parent);
  move.key = parent;  // lets a recovery proxy identify the target
  move.new_level = msg.new_level;
  move.trace_id = msg.trace_id;
  for (auto& [key, value] : records_) {
    move.records.push_back(WireRecord{key, std::move(value)});
  }
  if (log_ != nullptr) {
    persist::BucketLog* peer = runtime_->LogOfBucket(parent);
    if (peer != nullptr) {
      if (!peer->AppendBulkPut(msg.new_level, move.records)) {
        Halt();
        return;
      }
      move.records_durable = true;
    }
    if (!log_->AppendClear()) {
      Halt();
      return;
    }
  }
  records_.clear();
  columns_.Clear();
  UpdateRecordGauge(net);
  if (ParityEnabled()) {
    // The dissolving bucket's whole rank range empties in one update.
    std::vector<ParityOp> parity_ops;
    parity_ops.reserve(move.records.size());
    for (const WireRecord& r : move.records) {
      ParityOp op = MakeEraseOp(r.key);
      op.delta = RankBuffer(r.key, r.value);
      parity_ops.push_back(std::move(op));
    }
    EmitParity(net, std::move(parity_ops), false, msg.trace_id);
  }
  // Dissolved from this moment: an op that reaches this bucket before the
  // coordinator retires it from the directory must chase the records to
  // the parent, not read the empty map.
  retired_ = true;
  net.Send(std::move(move));

  Message done;
  done.type = MsgType::kMergeDone;
  done.from = site_;
  done.to = runtime_->CoordinatorSite();
  done.key = bucket_number_;
  done.trace_id = msg.trace_id;
  net.Send(std::move(done));
}

void LhBucketServer::HandleMergeRecords(Message& msg, Network& net) {
  // Merges are serialized at the coordinator, but their record transfers
  // travel on different links: a later merge's transfer (lower new_level)
  // can overtake an earlier one's. Apply transfers strictly in level
  // order — each step takes the level down by exactly one — and stash any
  // that arrive early.
  ESSDDS_CHECK(msg.new_level < level_)
      << "merge level mismatch at bucket " << bucket_number_;
  if (msg.new_level != level_ - 1) {
    stashed_merge_records_.push_back(std::move(msg));
    return;
  }
  // One resolution covers the whole handler, including stashed transfers
  // applied below: no message delivery happens in between, so no new scan
  // task can be enqueued mid-application. A transfer the dissolving bucket
  // already wrote into this log (two-phase) is not appended again.
  if (!msg.records_durable && log_ != nullptr &&
      !log_->AppendBulkPut(msg.new_level, msg.records)) {
    Halt();
    return;
  }
  AboutToMutateRecords(net);
  std::vector<ParityOp> parity_ops;
  if (ParityEnabled()) {
    parity_ops.reserve(msg.records.size());
    for (const WireRecord& r : msg.records) {
      parity_ops.push_back(MakeUpsertOp(r.key, r.value));
    }
  }
  level_ = msg.new_level;
  for (WireRecord& r : msg.records) {
    records_[r.key] = std::move(r.value);
  }
  // One parity update per applied transfer: each carries its own stepped
  // level, so the parity member mirror tracks the level sequence exactly.
  EmitParity(net, std::move(parity_ops), false, msg.trace_id);
  // The step down may unblock a stashed transfer (and that one the next).
  for (bool applied = true; applied;) {
    applied = false;
    for (auto it = stashed_merge_records_.begin();
         it != stashed_merge_records_.end(); ++it) {
      if (it->new_level + 1 != level_) continue;
      Message next = std::move(*it);
      stashed_merge_records_.erase(it);
      if (!next.records_durable && log_ != nullptr &&
          !log_->AppendBulkPut(next.new_level, next.records)) {
        Halt();
        return;
      }
      std::vector<ParityOp> stashed_ops;
      if (ParityEnabled()) {
        stashed_ops.reserve(next.records.size());
        for (const WireRecord& r : next.records) {
          stashed_ops.push_back(MakeUpsertOp(r.key, r.value));
        }
      }
      level_ = next.new_level;
      for (WireRecord& r : next.records) {
        records_[r.key] = std::move(r.value);
      }
      EmitParity(net, std::move(stashed_ops), false, msg.trace_id);
      applied = true;
      break;
    }
  }
  // One repack after the whole transfer chain (main + unblocked stashed
  // transfers) rather than per-record upserts.
  columns_.RebuildFrom(records_);
  UpdateRecordGauge(net);
  if (log_ != nullptr) log_->MaybeCheckpoint(level_, retired_, records_);
  // The level came down: a split or merge order stashed while this transfer
  // was in flight may be runnable now (it re-stashes if still early).
  if (!stashed_control_.empty()) {
    std::vector<Message> replay = std::move(stashed_control_);
    stashed_control_.clear();
    for (Message& m : replay) OnMessage(m, net);
  }
}

LhBucketServer::ParityOp LhBucketServer::MakeUpsertOp(uint64_t key,
                                                      ByteSpan value) {
  ParityOp op;
  op.op = 0;
  op.record_key = key;
  Bytes old_buf;
  auto rank = rank_of_.find(key);
  if (rank != rank_of_.end()) {
    op.rank = rank->second;
    auto rec = records_.find(key);
    ESSDDS_CHECK(rec != records_.end());
    old_buf = RankBuffer(key, rec->second);
  } else if (!free_ranks_.empty()) {
    op.rank = *free_ranks_.begin();
    free_ranks_.erase(free_ranks_.begin());
    rank_of_.emplace(key, op.rank);
  } else {
    op.rank = next_rank_++;
    rank_of_.emplace(key, op.rank);
  }
  op.delta = XorBytes(old_buf, RankBuffer(key, value));
  return op;
}

LhBucketServer::ParityOp LhBucketServer::MakeEraseOp(uint64_t key) {
  ParityOp op;
  op.op = 1;
  op.record_key = key;
  auto rank = rank_of_.find(key);
  ESSDDS_CHECK(rank != rank_of_.end()) << "erase of unranked key " << key;
  op.rank = rank->second;
  // Bulk paths (split carve-out, merge clear) have already moved the value
  // out of the map and override the delta themselves.
  auto rec = records_.find(key);
  if (rec != records_.end()) op.delta = RankBuffer(key, rec->second);
  free_ranks_.insert(op.rank);
  rank_of_.erase(rank);
  return op;
}

void LhBucketServer::EmitParity(Network& net, std::vector<ParityOp> ops,
                                bool clears_loading, uint64_t trace_id) {
  if (!ParityEnabled()) return;
  // A level step must reach the parity sites even without record deltas —
  // their member mirror drives degraded-mode address verification.
  if (ops.empty() && !clears_loading && level_ == parity_level_emitted_) {
    return;
  }
  ++parity_seq_;
  parity_level_emitted_ = level_;
  std::vector<WireRecord> entries;
  entries.reserve(ops.size());
  for (ParityOp& op : ops) {
    entries.push_back(WireRecord{
        op.rank,
        EncodeParityEntry(ParityEntry{op.op, op.record_key,
                                      std::move(op.delta)})});
  }
  for (SiteId parity_site : runtime_->ParitySitesOfBucket(bucket_number_)) {
    Message update;
    update.type = MsgType::kParityUpdate;
    update.from = site_;
    update.to = parity_site;
    update.key = bucket_number_;
    update.bucket_to_split =
        bucket_number_ / runtime_->options().parity_group_size;
    update.request_id = parity_seq_;
    update.new_level = level_;
    update.filter_id = clears_loading ? 1 : 0;
    update.records = entries;  // same unscaled deltas to every parity row
    update.trace_id = trace_id;
    net.Send(std::move(update));
  }
}

void LhBucketServer::HandlePing(const Message& msg, Network& net) {
  Message pong;
  pong.type = MsgType::kPong;
  pong.from = site_;
  pong.to = msg.from;
  pong.key = msg.key;
  pong.request_id = msg.request_id;
  pong.trace_id = msg.trace_id;
  net.Send(std::move(pong));
}

void LhBucketServer::HandleReconstructRequest(const Message& msg,
                                              Network& net) {
  if (msg.filter_id == 0) {
    auto floor = reconstruct_release_floor_.find(msg.from);
    if (floor != reconstruct_release_floor_.end() &&
        msg.request_id <= floor->second) {
      // Stale replay of a freeze whose gather already released (it sat in
      // a dead predecessor's letter queue until the rebuild redirect).
      return;
    }
    // Freeze + slice: park mutations and hand the proxy this bucket's rank
    // buffers plus the facts the decode needs (sequence cut, level,
    // loading). Re-freezing on a restarted gather just answers again.
    frozen_ = true;
    Message slice;
    slice.type = MsgType::kReconstructSlice;
    slice.from = site_;
    slice.to = msg.from;
    slice.key = bucket_number_;
    slice.request_id = msg.request_id;  // epoch echo
    slice.filter_id = parity_seq_;
    slice.new_level = level_;
    slice.found = loading_;
    slice.records.reserve(rank_of_.size());
    for (const auto& [key, rank] : rank_of_) {
      slice.records.push_back(WireRecord{rank, RankBuffer(key, records_.at(key))});
    }
    net.Send(std::move(slice));
    return;
  }
  ESSDDS_CHECK(msg.filter_id == 2)
      << "bucket server got reconstruct mode " << msg.filter_id;
  // Record the floor even when not frozen: a rebuilt bucket may see the
  // release before (or instead of) the freeze it answers for.
  uint64_t& floor = reconstruct_release_floor_[msg.from];
  floor = std::max(floor, msg.request_id);
  if (!frozen_) return;
  frozen_ = false;
  // Replay whatever the freeze parked, in arrival order (replays may send
  // and may re-park if the bucket is still loading).
  std::vector<Message> replay = std::move(frozen_parked_);
  frozen_parked_.clear();
  for (Message& m : replay) OnMessage(m, net);
}

void LhBucketServer::RestoreRebuilt(RebuiltBucket state) {
  records_.clear();
  rank_of_.clear();
  free_ranks_.clear();
  next_rank_ = 0;
  for (auto& [rank, record] : state.rank_records) {
    records_[record.key] = std::move(record.value);
    rank_of_[record.key] = rank;
    next_rank_ = std::max(next_rank_, rank + 1);
  }
  // Re-derive the free list: every rank below the high-water mark that no
  // record occupies is reusable, exactly as on the dead server.
  std::set<uint64_t> used;
  for (const auto& [key, rank] : rank_of_) {
    (void)key;
    used.insert(rank);
  }
  for (uint64_t r = 0; r < next_rank_; ++r) {
    if (!used.count(r)) free_ranks_.insert(r);
  }
  columns_.RebuildFrom(records_);
  level_ = state.level;
  parity_level_emitted_ = state.level;
  parity_seq_ = state.parity_seq;
  loading_ = state.loading;
}

void LhBucketServer::AboutToMutateRecords(Network& net) {
  // A deferred scan task borrows columns_ (the lockstep mirror of
  // records_) until the batch drains; evaluate any queued for this bucket
  // now, against the pre-mutation content — exactly what the serial inline
  // mode returned at kScan delivery, so deferred results stay
  // byte-identical. The generation step arms the snapshot assert for any
  // mutation path that skips this call.
  if (net.deferred_scan_mode()) net.ResolveDeferredScans(bucket_number_);
  ++mutation_generation_;
}

void LhBucketServer::UpdateRecordGauge(Network& net) {
  if (!obs::kMetricsEnabled) return;
  if (record_gauge_ == nullptr) {
    record_gauge_ = &net.metrics().gauge(
        "bucket." + std::to_string(bucket_number_) + ".records");
  }
  record_gauge_->Set(static_cast<int64_t>(records_.size()));
}

void LhBucketServer::MaybeReportOverflow(Network& net, uint64_t trace_id) {
  if (records_.size() <= options_.bucket_capacity) return;
  Message overflow;
  overflow.type = MsgType::kOverflow;
  overflow.from = site_;
  overflow.to = runtime_->CoordinatorSite();
  overflow.key = bucket_number_;
  overflow.trace_id = trace_id;
  net.Send(std::move(overflow));
}

void LhBucketServer::MaybeReportUnderflow(Network& net, uint64_t trace_id) {
  if (options_.merge_threshold <= 0.0) return;
  const double low_water =
      options_.merge_threshold * static_cast<double>(options_.bucket_capacity);
  if (static_cast<double>(records_.size()) >= low_water) return;
  Message underflow;
  underflow.type = MsgType::kUnderflow;
  underflow.from = site_;
  underflow.to = runtime_->CoordinatorSite();
  underflow.key = bucket_number_;
  underflow.trace_id = trace_id;
  net.Send(std::move(underflow));
}

void LhCoordinator::OnMessage(Message& msg, Network& net) {
  switch (msg.type) {
    case MsgType::kOverflow:
      // Uncontrolled splitting: every collision report triggers one split of
      // the bucket at the split pointer (which is generally NOT the
      // overflowing bucket — that is the essence of linear hashing).
      // Restructuring defers while a reconstruction runs — a split would
      // move records between buckets mid-gather. The bucket reports again
      // on its next insert.
      if (recovering_ == 0) PerformSplit(net, msg.trace_id);
      return;
    case MsgType::kSplitDone:
      ESSDDS_CHECK(split_in_progress_);
      split_in_progress_ = false;
      ++split_pointer_;
      ++extent_;
      if (split_pointer_ == (uint64_t{1} << level_)) {
        split_pointer_ = 0;
        ++level_;
      }
      return;
    case MsgType::kUnderflow:
      if (recovering_ == 0) PerformMerge(net, msg.trace_id);
      return;
    case MsgType::kMergeDone:
      ESSDDS_CHECK(merge_in_progress_);
      merge_in_progress_ = false;
      if (split_pointer_ == 0) {
        ESSDDS_CHECK(level_ > 0);
        --level_;
        split_pointer_ = (uint64_t{1} << level_) - 1;
      } else {
        --split_pointer_;
      }
      --extent_;
      runtime_->RetireLastBucket();
      return;
    case MsgType::kDeadSite:
      HandleDeadSite(msg, net);
      return;
    case MsgType::kPong: {
      // The probed site answered: alive, just slow. Forget the report.
      auto it = dead_probes_.find(msg.key);
      if (it != dead_probes_.end() && !it->second.declared) {
        dead_probes_.erase(it);
      }
      return;
    }
    case MsgType::kRecoveryTick:
      HandleRecoveryTick(msg, net);
      return;
    case MsgType::kRebuildDone: {
      auto it = dead_probes_.find(msg.key);
      ESSDDS_CHECK(it != dead_probes_.end() && it->second.declared);
      if (obs::kMetricsEnabled) {
        net.metrics()
            .histogram("recovery.reconstruction_us")
            .Record(net.now_us() - it->second.declared_at_us);
      }
      dead_probes_.erase(it);
      ESSDDS_CHECK(recovering_ > 0);
      --recovering_;
      return;
    }
    default:
      ESSDDS_CHECK(false) << "coordinator got unexpected message "
                          << MsgTypeToString(msg.type);
  }
}

void LhCoordinator::HandleDeadSite(const Message& msg, Network& net) {
  if (obs::kMetricsEnabled) {
    net.metrics().counter("coord.dead_site_reports").Increment();
  }
  if (runtime_->options().parity_group_size == 0) {
    // No parity groups -> no headroom to reconstruct from; the report is
    // telemetry only (the socket transport's clients send one per
    // retry-exhausted op, making a SIGKILLed host visible in the
    // coordinator's metrics even though v1 cannot recover it).
    return;
  }
  // The client reports the RECORD KEY it cannot get served (its own
  // computed address may be stale, and the hop that is actually dead can
  // sit anywhere on the forwarding chain). Every hop a key-op can take —
  // client address, intermediate forwards, authoritative bucket — is a
  // prefix of the key's hash image, so probing the existing prefixes
  // covers the whole chain.
  const uint64_t image = LhKeyImage(msg.key, runtime_->options());
  const uint64_t probed_mask_bits = level_ + 2;  // h_0 .. h_{i+1}
  std::set<uint64_t> candidates;
  for (uint64_t len = 0; len < probed_mask_bits; ++len) {
    const uint64_t c = image & ((uint64_t{1} << len) - 1);
    // BucketExists rather than the coordinator's extent: an in-flight
    // split's target bucket serves (well, parks) traffic before the
    // kSplitDone that steps the extent — and it can die like any other.
    if (runtime_->BucketExists(c)) candidates.insert(c);
  }
  for (uint64_t bucket : candidates) {
    if (dead_probes_.count(bucket)) continue;  // probe/recovery in flight
    DeadProbe probe;
    probe.generation = next_probe_generation_++;
    probe.reported_at_us = net.now_us();
    Message ping;
    ping.type = MsgType::kPing;
    ping.from = site_;
    ping.to = runtime_->SiteOfBucket(bucket);
    ping.key = bucket;
    ping.trace_id = msg.trace_id;
    net.Send(std::move(ping));
    Message tick;
    tick.type = MsgType::kRecoveryTick;
    tick.from = site_;
    tick.to = site_;
    tick.key = bucket;
    tick.filter_id = 0;  // ping-timeout probe
    tick.request_id = probe.generation;
    net.ScheduleTimer(std::move(tick), runtime_->options().ping_timeout_us);
    dead_probes_.emplace(bucket, probe);
  }
}

void LhCoordinator::HandleRecoveryTick(const Message& msg, Network& net) {
  const uint64_t bucket = msg.key;
  if (msg.filter_id == 1) {
    // Degraded-mode hold elapsed: order the rebuild.
    SendRebuild(bucket, net);
    return;
  }
  auto it = dead_probes_.find(bucket);
  if (it == dead_probes_.end() || it->second.declared) return;
  // A pong may have erased the probe this tick was armed for and a later
  // report re-created one; declaring THAT probe here would cut its
  // patience window short (and falsely kill a live site).
  if (it->second.generation != msg.request_id) return;
  ++it->second.attempts;
  if (it->second.attempts < runtime_->options().ping_attempts) {
    // Unanswered, but a slow or fault-delayed pong is still cheaper than a
    // false declaration (that would burn parity headroom on a live site):
    // ping again and keep waiting.
    Message ping;
    ping.type = MsgType::kPing;
    ping.from = site_;
    ping.to = runtime_->SiteOfBucket(bucket);
    ping.key = bucket;
    ping.trace_id = msg.trace_id;
    net.Send(std::move(ping));
    Message tick = msg;
    net.ScheduleTimer(std::move(tick), runtime_->options().ping_timeout_us);
    return;
  }
  // Every ping went unanswered for the whole patience window: declare the
  // site dead and hand reconstruction to the group's parity proxy.
  it->second.declared = true;
  it->second.declared_at_us = net.now_us();
  if (obs::kMetricsEnabled) {
    net.metrics().counter("coord.dead_sites").Increment();
    // Phase timer (declare): first client report -> dead declaration. The
    // freeze/decode/install phases are timed by the parity proxy.
    net.metrics()
        .histogram("recovery.declare_us")
        .Record(it->second.declared_at_us - it->second.reported_at_us);
  }
  it->second.proxy = runtime_->MarkBucketDead(bucket);
  ++recovering_;
  const uint64_t hold = runtime_->options().recovery_hold_us;
  if (hold == 0) {
    SendRebuild(bucket, net);
    return;
  }
  Message tick;
  tick.type = MsgType::kRecoveryTick;
  tick.from = site_;
  tick.to = site_;
  tick.key = bucket;
  tick.filter_id = 1;
  net.ScheduleTimer(std::move(tick), hold);
}

void LhCoordinator::SendRebuild(uint64_t bucket, Network& net) {
  auto it = dead_probes_.find(bucket);
  ESSDDS_CHECK(it != dead_probes_.end() && it->second.declared);
  Message rebuild;
  rebuild.type = MsgType::kRebuild;
  rebuild.from = site_;
  rebuild.to = it->second.proxy;
  rebuild.key = bucket;
  rebuild.bucket_to_split = bucket / runtime_->options().parity_group_size;
  net.Send(std::move(rebuild));
}

void LhCoordinator::PerformMerge(Network& net, uint64_t trace_id) {
  if (merge_in_progress_ || split_in_progress_ || extent_ <= 1) return;
  merge_in_progress_ = true;
  net.metrics().counter("coord.merges").Increment();
  // Inverse of the split order: dissolve the most recently created bucket
  // back into its parent.
  uint64_t victim, parent, parent_new_level;
  if (split_pointer_ > 0) {
    parent = split_pointer_ - 1;
    victim = parent + (uint64_t{1} << level_);
    parent_new_level = level_;
  } else {
    // The file just doubled; undo the last split of the previous round.
    parent = (uint64_t{1} << (level_ - 1)) - 1;
    victim = (uint64_t{1} << level_) - 1;
    parent_new_level = level_ - 1;
  }
  Message merge;
  merge.type = MsgType::kMerge;
  merge.from = site_;
  merge.to = runtime_->SiteOfBucket(victim);
  merge.bucket_to_split = victim;
  merge.key = parent;
  merge.new_level = static_cast<uint32_t>(parent_new_level);
  merge.trace_id = trace_id;
  net.Send(std::move(merge));
}

void LhCoordinator::PerformSplit(Network& net, uint64_t trace_id) {
  // An overflow report can arrive while a split (or merge) is already in
  // flight — on a real network the reports race the kSplitDone ack. The
  // report is then already served by the in-flight restructuring: drop it,
  // exactly as PerformMerge drops concurrent underflow reports. (A bucket
  // still overflowing afterwards reports again on its next insert.)
  if (split_in_progress_ || merge_in_progress_) return;
  split_in_progress_ = true;
  net.metrics().counter("coord.splits").Increment();
  const uint64_t old_bucket = split_pointer_;
  const uint64_t new_bucket = split_pointer_ + (uint64_t{1} << level_);
  runtime_->CreateBucket(new_bucket, level_ + 1);

  Message split;
  split.type = MsgType::kSplit;
  split.from = site_;
  split.to = runtime_->SiteOfBucket(old_bucket);
  split.bucket_to_split = old_bucket;
  split.new_level = level_ + 1;
  split.key = new_bucket;
  split.trace_id = trace_id;
  net.Send(std::move(split));
}

}  // namespace essdds::sdds
