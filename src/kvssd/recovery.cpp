#include "kvssd/recovery.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ftl/layout.hpp"

namespace rhik::kvssd {

using flash::Ppa;

namespace {

/// A torn page can hold arbitrary spare bytes; only these tag values can
/// have been written by the store or the index layer.
bool tag_sane(const ftl::SpareTag& tag) noexcept {
  const bool kind_ok = tag.kind == ftl::PageKind::kDataHead ||
                       tag.kind == ftl::PageKind::kDataCont ||
                       tag.kind == ftl::PageKind::kIndexRecord ||
                       tag.kind == ftl::PageKind::kIndexDir;
  const bool stream_ok = tag.stream == ftl::Stream::kData ||
                         tag.stream == ftl::Stream::kIndex ||
                         tag.stream == ftl::Stream::kCold;
  return kind_ok && stream_ok;
}

/// One pair met by the full scan (40 B: the whole log of a 100 k-key
/// shard sorts in a few MiB).
struct Seen {
  std::uint64_t order;  ///< index::bulk_order_key(sig)
  std::uint64_t epoch;
  std::uint64_t seq;    ///< head page's sequence number
  std::uint64_t ppa : 40;
  std::uint64_t offset : 23;  ///< header offset in the head page
  std::uint64_t tombstone : 1;
  std::uint32_t pair_bytes;
  std::uint32_t head_bytes;  ///< portion resident in the head page
};
static_assert(sizeof(Seen) == 40);

/// Bulk install order, then the newest version of a signature first.
/// Ordering is epoch-major, (seq, offset)-minor: GC relocates
/// snapshot-retained OLD versions into fresh pages (preserving their
/// original epoch stamps), so a higher page seq alone does not imply a
/// newer version. Epochs strictly increase across a key's mutations; ops
/// of one batch share a stamp and are ordered by (seq, offset) (pre-MVCC
/// pages all decode epoch 0 and keep the pure-seq behavior). An exact
/// tie keeps the copy met first in scan order.
bool newest_first(const Seen& a, const Seen& b) noexcept {
  if (a.order != b.order) return a.order < b.order;
  if (a.epoch != b.epoch) return a.epoch > b.epoch;
  if (a.seq != b.seq) return a.seq > b.seq;
  if (a.offset != b.offset) return a.offset > b.offset;
  return a.ppa < b.ppa;
}

}  // namespace

void RecoveryStats::merge_from(const RecoveryStats& other) noexcept {
  blocks_adopted += other.blocks_adopted;
  data_pages_scanned += other.data_pages_scanned;
  pairs_seen += other.pairs_seen;
  tombstones_seen += other.tombstones_seen;
  keys_recovered += other.keys_recovered;
  live_bytes += other.live_bytes;
  max_seq = std::max(max_seq, other.max_seq);
  max_epoch = std::max(max_epoch, other.max_epoch);
  torn_pages_dropped += other.torn_pages_dropped;
  incomplete_extents_dropped += other.incomplete_extents_dropped;
  wear_blocks_restored += other.wear_blocks_restored;
  dead_blocks_reclaimed += other.dead_blocks_reclaimed;
  pages_read += other.pages_read;
  checkpoint_restored += other.checkpoint_restored;
  full_scan_fallback += other.full_scan_fallback;
  if (ok(fallback_reason)) fallback_reason = other.fallback_reason;
  journal_pages_replayed += other.journal_pages_replayed;
  journal_records_replayed += other.journal_records_replayed;
  checkpoint_version = std::max(checkpoint_version, other.checkpoint_version);
}

Result<RecoveryStats> recover_from_flash(flash::NandDevice& nand,
                                         ftl::PageAllocator& alloc,
                                         ftl::FlashKvStore& store,
                                         index::IIndex& index) {
  const auto& g = nand.geometry();
  RecoveryStats stats;
  // Seen's narrow fields: an offset within a page, a durable pair within
  // a block (its whole extent was found programmed in one).
  if (g.page_size > (1u << 23) || g.block_bytes() > UINT32_MAX) {
    return Status::kInvalidArgument;
  }

  // Every pair the scan meets, appended in scan order and sorted once
  // below, so the install order is a function of the log alone.
  std::vector<Seen> seen;

  // Pages are read as views of the NAND's own image (same charge as a
  // copying read). A view dies with its block's erase, and the sweep
  // below erases, so every view stays inside its loop iteration.
  std::vector<std::uint32_t> adopted;

  // The controller-reserved checkpoint tail is not part of the log; its
  // pages carry their own formats and are scanned by the checkpoint
  // manager, never adopted here.
  const std::uint32_t scan_end = alloc.first_reserved_block();
  for (std::uint32_t block = 0; block < scan_end; ++block) {
    const std::uint32_t programmed = nand.pages_programmed(block);
    if (programmed == 0) continue;
    stats.blocks_adopted++;
    adopted.push_back(block);

    // The first page names the block's stream and carries the wear
    // stamp. If it is torn, the power cut hit the block's very first
    // program: nothing in the block was ever acknowledged, and it is
    // adopted with zero valid pages (pure GC fodder — it cannot rejoin
    // the free list with a non-zero write point).
    ByteSpan page;
    ByteSpan spare;
    if (Status s = nand.read_page_view(flash::make_ppa(g, block, 0), &page, &spare);
        !ok(s)) {
      return s;
    }
    if (!flash::page_crc_ok(g, page, spare) || !tag_sane(ftl::SpareTag::decode(spare))) {
      stats.torn_pages_dropped += programmed;
      if (Status s = alloc.adopt_block(block, ftl::Stream::kData, 0); !ok(s)) return s;
      continue;
    }
    const ftl::SpareTag first = ftl::SpareTag::decode(spare);
    nand.restore_erase_count(block, flash::spare_wear_stamp(g, spare));
    stats.wear_blocks_restored++;

    if (!ftl::is_data_stream(first.stream)) {
      // Index zone: contents are all stale (the index is rebuilt) and no
      // winner points here, so the sweep below erases the block. Only
      // its torn tail is counted: pages program in order, so it is found
      // from the top down, in one read when the last program completed.
      std::uint32_t valid = programmed;
      while (valid > 1) {
        if (Status s = nand.read_page_view(flash::make_ppa(g, block, valid - 1), &page,
                                           &spare);
            !ok(s)) {
          return s;
        }
        if (flash::page_crc_ok(g, page, spare)) break;
        --valid;
      }
      stats.torn_pages_dropped += programmed - valid;
      if (Status s = alloc.adopt_block(block, first.stream, valid); !ok(s)) return s;
      continue;
    }

    // Data block (hot or cold stream — identical layout): walk pages in
    // programming order and truncate the block's log at the first page
    // that is torn (CRC), mis-tagged (orphan continuation, foreign kind)
    // or structurally inconsistent. Everything after such a page
    // postdates the power cut's victim and was never acknowledged. Page
    // 0's view from above is reused.
    std::uint32_t valid = 0;
    std::uint32_t pg = 0;
    while (pg < programmed) {
      const Ppa ppa = flash::make_ppa(g, block, pg);
      if (pg != 0) {
        if (Status s = nand.read_page_view(ppa, &page, &spare); !ok(s)) return s;
        if (!flash::page_crc_ok(g, page, spare)) break;
      }
      const ftl::SpareTag tag = ftl::SpareTag::decode(spare);
      if (tag.kind != ftl::PageKind::kDataHead) break;
      const auto pairs = ftl::parse_head_page(page, g.page_size);
      if (!pairs) break;
      const std::uint64_t seq = ftl::DataPageSpare::decode(spare).seq;

      // A spilling pair is durable only if its whole continuation chain
      // was programmed intact. A crash mid-extent leaves a perfectly
      // valid head whose winner would shadow an older, complete version
      // of the same key — so an incomplete extent drops the head too.
      std::uint32_t span = 1;
      if (!pairs->empty() && pairs->back().spills) {
        const std::uint32_t need =
            ftl::continuation_pages(g, pairs->back().header.pair_bytes());
        bool complete = pg + 1 + need <= programmed;
        for (std::uint32_t c = 1; complete && c <= need; ++c) {
          ByteSpan cont;
          ByteSpan cont_spare;
          if (Status s = nand.read_page_view(ppa + c, &cont, &cont_spare); !ok(s)) {
            return s;
          }
          complete = flash::page_crc_ok(g, cont, cont_spare) &&
                     ftl::SpareTag::decode(cont_spare).kind == ftl::PageKind::kDataCont;
        }
        if (!complete) {
          stats.incomplete_extents_dropped++;
          break;
        }
        span = 1 + need;
      }

      stats.data_pages_scanned++;
      if (seq > stats.max_seq) stats.max_seq = seq;
      for (const auto& p : *pairs) {
        stats.pairs_seen++;
        if (p.header.tombstone) stats.tombstones_seen++;
        if (p.header.epoch > stats.max_epoch) stats.max_epoch = p.header.epoch;
        seen.push_back(Seen{index::bulk_order_key(p.header.sig), p.header.epoch, seq,
                            ppa, p.offset, p.header.tombstone,
                            static_cast<std::uint32_t>(p.header.pair_bytes()),
                            static_cast<std::uint32_t>(p.in_page_bytes)});
      }
      pg += span;
      valid = pg;
    }
    stats.torn_pages_dropped += programmed - valid;
    if (Status s = alloc.adopt_block(block, first.stream, valid); !ok(s)) return s;
  }

  // One sort puts each signature's versions together, newest first; the
  // first of every run is the winner.
  std::sort(seen.begin(), seen.end(), newest_first);
  seen.erase(std::unique(seen.begin(), seen.end(),
                         [](const Seen& a, const Seen& b) { return a.order == b.order; }),
             seen.end());

  // Credit liveness first: live pairs and tombstones pin their pages so
  // GC preserves them. Liveness is credited page by page along the
  // extent, so a block holding only continuation pages of a live value
  // is never left at zero live bytes (which would make pick_victim erase
  // it out from under the extent).
  for (const Seen& w : seen) {
    std::uint64_t remaining = w.pair_bytes;
    std::uint64_t chunk = std::min<std::uint64_t>(w.head_bytes, remaining);
    Ppa p = w.ppa;
    while (remaining > 0) {
      alloc.add_live(p, chunk);
      remaining -= chunk;
      ++p;
      chunk = std::min<std::uint64_t>(g.page_size, remaining);
    }
  }

  // Sweep dead weight BEFORE rebuilding the index. Every old index-zone
  // block is stale by construction (the index is rebuilt from the data
  // log below), and repeated crash cycles also accumulate sealed data
  // blocks whose every pair lost — torn tails, superseded versions. A
  // device that crashed often enough would otherwise run out of free
  // blocks for the rebuilt index's own record pages. Erasing here is
  // idempotent across a crash-during-recovery: the data log is untouched
  // and wear counts were already restored above.
  for (const std::uint32_t block : adopted) {
    if (alloc.block_live_bytes(block) != 0) continue;
    if (Status s = alloc.reclaim_block(block); !ok(s)) return s;
    stats.dead_blocks_reclaimed++;
  }

  // Install the winners in one bulk pass: live pairs enter the index
  // (tombstones stay out — their pinned deletion record on flash is
  // their only trace). bulk_order_key is its own inverse.
  std::vector<hash::Record> live;
  live.reserve(seen.size());
  for (const Seen& w : seen) {
    if (w.tombstone) continue;
    live.push_back(hash::Record{index::bulk_order_key(w.order), w.ppa});
    stats.keys_recovered++;
    stats.live_bytes += w.pair_bytes;
  }
  if (Status s = index.bulk_load(live); !ok(s)) return s;

  store.set_next_seq(stats.max_seq + 1);
  return stats;
}

}  // namespace rhik::kvssd
