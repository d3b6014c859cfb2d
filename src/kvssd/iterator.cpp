#include "kvssd/iterator.hpp"

#include <algorithm>
#include <cassert>

#include "hash/murmur.hpp"

namespace rhik::kvssd {

IteratorManager::IteratorManager(index::IIndex* index, ftl::FlashKvStore* store,
                                 ftl::SnapshotRegistry* registry,
                                 ftl::VersionRetainer* retainer)
    : index_(index), store_(store), registry_(registry), retainer_(retainer) {
  assert(index_ && store_);
}

Result<std::uint32_t> IteratorManager::open(ByteSpan prefix,
                                            IteratorOptions opts) {
  if (registry_ == nullptr) {
    return open_impl(prefix, opts, 0, ftl::kEpochMax, false);
  }
  const ftl::SnapshotRegistry::Pin pin = registry_->open();
  auto handle = open_impl(prefix, opts, pin.id, pin.epoch, /*owns_pin=*/true);
  if (!handle) (void)registry_->release(pin.id);
  return handle;
}

Result<std::uint32_t> IteratorManager::open_at(ByteSpan prefix,
                                               std::uint64_t pin_id,
                                               IteratorOptions opts) {
  if (registry_ == nullptr || pin_id == 0) return Status::kInvalidArgument;
  const auto epoch = registry_->epoch_of(pin_id);
  if (!epoch) return epoch.status();  // expired / unknown pin
  return open_impl(prefix, opts, pin_id, *epoch, /*owns_pin=*/false);
}

Result<std::uint32_t> IteratorManager::open_impl(ByteSpan prefix,
                                                 IteratorOptions opts,
                                                 std::uint64_t pin_id,
                                                 std::uint64_t epoch,
                                                 bool owns_pin) {
  if (prefix.empty()) return Status::kInvalidArgument;
  if (iters_.size() >= kMaxOpenIterators) return Status::kIteratorMax;

  // Keys sharing the first 4 bytes share the 16-bit class tag (§VI; the
  // device builds signatures over a 4 B prefix window). Tag collisions
  // and longer user prefixes both narrow via the full-key check below.
  const std::uint64_t want = hash::class_tag(hash::prefix_signature(prefix));
  OpenIterator it;
  it.prefix.assign(prefix.begin(), prefix.end());
  it.opts = opts;
  it.pin_id = pin_id;
  it.epoch = epoch;
  it.owns_pin = owns_pin;
  if (Status s = index_->scan(
          [&](std::uint64_t sig, flash::Ppa ppa) { it.candidates.emplace_back(sig, ppa); },
          want);
      !ok(s)) {
    return s;
  }
  // A caller-supplied snapshot may predate this open: keys deleted since
  // the pin are gone from the index but their retained versions still
  // cover the pinned epoch — they are candidates too.
  if (pin_id != 0 && retainer_ != nullptr) {
    retainer_->for_each_covering(
        epoch, [&](std::uint64_t sig, const ftl::RetainedVersion& v) {
          if (hash::class_tag(sig) == want) {
            it.candidates.emplace_back(sig, v.ppa);
          }
        });
  }
  // Deterministic enumeration order; one resolution per signature.
  std::sort(it.candidates.begin(), it.candidates.end());
  it.candidates.erase(
      std::unique(it.candidates.begin(), it.candidates.end(),
                  [](const auto& a, const auto& b) { return a.first == b.first; }),
      it.candidates.end());

  const std::uint32_t handle = next_handle_++;
  iters_.emplace(handle, std::move(it));
  return handle;
}

bool IteratorManager::resolve_pinned(const OpenIterator& it, std::uint64_t sig,
                                     IteratorEntry* entry) {
  // Current version first: visible iff its stamp is at or below the
  // pinned epoch (an index hit is never a tombstone — deletes unmap).
  const auto looked = index_->lookup(sig);
  if (looked && *looked) {
    if (it.opts.include_values) {
      std::uint64_t e = 0;
      if (ok(store_->read_pair(**looked, sig, &entry->key, &entry->value, &e)) &&
          e <= it.epoch) {
        return true;
      }
    } else {
      const auto meta = store_->read_pair_meta(**looked, sig);
      if (meta && !meta->tombstone && meta->epoch <= it.epoch) {
        entry->key = std::move(meta->key);
        return true;
      }
    }
  }
  // Superseded at the pinned epoch: the retainer holds the covering
  // version (a covering tombstone means the key was already deleted).
  if (retainer_ == nullptr) return false;
  const ftl::RetainedVersion* v = retainer_->resolve(sig, it.epoch);
  if (v == nullptr) return false;
  bool tomb = false;
  entry->key.clear();
  entry->value.clear();
  if (!ok(store_->read_pair_at(v->ppa, sig, it.epoch, &entry->key,
                               &entry->value, &tomb))) {
    return false;
  }
  return !tomb;
}

Status IteratorManager::next(std::uint32_t handle, std::size_t max_entries,
                             std::vector<IteratorEntry>* out) {
  if (out == nullptr || max_entries == 0) return Status::kInvalidArgument;
  const auto found = iters_.find(handle);
  if (found == iters_.end()) return Status::kInvalidArgument;
  OpenIterator& it = found->second;
  if (it.pin_id != 0) {
    // The retention bound may have expired the pin mid-scan; erroring
    // here (instead of silently mixing epochs) is the §13 contract.
    const auto e = registry_->epoch_of(it.pin_id);
    if (!e) return e.status();
  }

  out->clear();
  while (out->size() < max_entries && it.pos < it.candidates.size()) {
    const auto [sig, ppa] = it.candidates[it.pos++];
    IteratorEntry entry;
    if (it.pin_id != 0) {
      if (!resolve_pinned(it, sig, &entry)) continue;
    } else if (it.opts.include_values) {
      if (!ok(store_->read_pair(ppa, sig, &entry.key, &entry.value))) continue;
    } else {
      auto meta = store_->read_pair_meta(ppa, sig);
      if (!meta || meta->tombstone) continue;
      entry.key = std::move(meta->key);
    }
    // Weed out hash-class collisions with the real stored prefix.
    if (entry.key.size() < it.prefix.size() ||
        !std::equal(it.prefix.begin(), it.prefix.end(), entry.key.begin())) {
      continue;
    }
    out->push_back(std::move(entry));
  }
  if (out->empty() && it.pos >= it.candidates.size()) return Status::kNotFound;
  return Status::kOk;
}

Status IteratorManager::close(std::uint32_t handle) {
  const auto found = iters_.find(handle);
  if (found == iters_.end()) return Status::kInvalidArgument;
  if (found->second.owns_pin && registry_ != nullptr) {
    (void)registry_->release(found->second.pin_id);
  }
  iters_.erase(found);
  return Status::kOk;
}

}  // namespace rhik::kvssd
