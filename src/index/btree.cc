#include "index/btree.h"

#include <cassert>

namespace rocc {

using btree_detail::Inner;
using btree_detail::kInnerMax;
using btree_detail::kLeafMax;
using btree_detail::Leaf;
using btree_detail::Node;

// Binary searches over the relaxed key loads. An optimistic reader may see
// a writer's half-shifted keys: the result is then garbage but stays within
// [0, count], and the reader's version check discards it.

int Inner::ChildIndex(uint64_t key) const {
  // First separator strictly greater than key; children[i] covers
  // [keys[i-1], keys[i]).
  int lo = 0;
  int hi = count.load();
  while (lo < hi) {
    const int mid = (lo + hi) / 2;
    if (keys[mid].load() <= key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

int Leaf::LowerBound(uint64_t key) const {
  int lo = 0;
  int hi = count.load();
  while (lo < hi) {
    const int mid = (lo + hi) / 2;
    if (keys[mid].load() < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

BTree::BTree() { root_.store(new Leaf(), std::memory_order_release); }

BTree::~BTree() { FreeRecursive(root_.load(std::memory_order_acquire)); }

void BTree::FreeRecursive(Node* node) {
  if (!node->is_leaf) {
    Inner* inner = static_cast<Inner*>(node);
    for (int i = 0; i <= inner->count.load(); i++) {
      FreeRecursive(inner->children[i].load());
    }
    delete inner;
  } else {
    delete static_cast<Leaf*>(node);
  }
}

void BTree::InsertIntoParentLocked(Inner* parent, uint64_t sep, Node* left,
                                   Node* right) {
  if (parent != nullptr) {
    // Eager splitting on the way down guarantees room here.
    const int count = parent->count.load();
    assert(count < kInnerMax);
    int pos = parent->ChildIndex(sep);
    for (int i = count; i > pos; i--) {
      parent->keys[i].store(parent->keys[i - 1].load());
      parent->children[i + 1].store(parent->children[i].load());
    }
    parent->keys[pos].store(sep);
    parent->children[pos + 1].store(right);
    parent->count.store(static_cast<uint16_t>(count + 1));
  } else {
    Inner* new_root = new Inner();
    new_root->keys[0].store(sep);
    new_root->children[0].store(left);
    new_root->children[1].store(right);
    new_root->count.store(1);
    root_.store(new_root, std::memory_order_release);
  }
}

void BTree::SplitInner(Inner* parent, Inner* node) {
  // Both `parent` (or the root pointer implicitly) and `node` are
  // write-locked by the caller.
  Inner* right = new Inner();
  const int count = node->count.load();
  const int mid = count / 2;
  const uint64_t sep = node->keys[mid].load();
  const int right_count = count - mid - 1;
  for (int i = 0; i < right_count; i++) {
    right->keys[i].store(node->keys[mid + 1 + i].load());
  }
  for (int i = 0; i <= right_count; i++) {
    right->children[i].store(node->children[mid + 1 + i].load());
  }
  right->count.store(static_cast<uint16_t>(right_count));
  node->count.store(static_cast<uint16_t>(mid));
  InsertIntoParentLocked(parent, sep, node, right);
}

void BTree::SplitLeaf(Inner* parent, Leaf* leaf) {
  Leaf* right = new Leaf();
  const int count = leaf->count.load();
  const int mid = count / 2;
  const int right_count = count - mid;
  for (int i = 0; i < right_count; i++) {
    right->keys[i].store(leaf->keys[mid + i].load());
    right->vals[i].store(leaf->vals[mid + i].load());
  }
  right->count.store(static_cast<uint16_t>(right_count));
  leaf->count.store(static_cast<uint16_t>(mid));
  right->next.store(leaf->next.load(std::memory_order_acquire),
                    std::memory_order_release);
  leaf->next.store(right, std::memory_order_release);
  InsertIntoParentLocked(parent, right->keys[0].load(), leaf, right);
}

Status BTree::Insert(uint64_t key, Row* row) {
  while (true) {
    Node* node = root_.load(std::memory_order_acquire);
    uint64_t v = node->StableVersion();
    if (node != root_.load(std::memory_order_acquire)) continue;

    Inner* parent = nullptr;
    uint64_t pv = 0;
    bool restart = false;

    while (!node->is_leaf) {
      Inner* inner = static_cast<Inner*>(node);
      if (inner->count.load() == kInnerMax) {
        // Eagerly split the full inner node while holding the parent lock.
        if (parent != nullptr && !parent->TryUpgradeLock(pv)) {
          restart = true;
          break;
        }
        if (!inner->TryUpgradeLock(v)) {
          if (parent != nullptr) parent->WriteUnlock();
          restart = true;
          break;
        }
        if (parent == nullptr &&
            root_.load(std::memory_order_acquire) != inner) {
          inner->WriteUnlock();
          restart = true;
          break;
        }
        SplitInner(parent, inner);
        inner->WriteUnlock();
        if (parent != nullptr) parent->WriteUnlock();
        restart = true;  // retry from the top with the new shape
        break;
      }
      const int idx = inner->ChildIndex(key);
      Node* child = inner->children[idx].load();
      if (!inner->Validate(v)) { restart = true; break; }
      const uint64_t cv = child->StableVersion();
      if (!inner->Validate(v)) { restart = true; break; }
      parent = inner;
      pv = v;
      node = child;
      v = cv;
    }
    if (restart) continue;

    Leaf* leaf = static_cast<Leaf*>(node);
    if (leaf->count.load() == kLeafMax) {
      if (parent != nullptr && !parent->TryUpgradeLock(pv)) continue;
      if (!leaf->TryUpgradeLock(v)) {
        if (parent != nullptr) parent->WriteUnlock();
        continue;
      }
      if (parent == nullptr && root_.load(std::memory_order_acquire) != leaf) {
        leaf->WriteUnlock();
        continue;
      }
      SplitLeaf(parent, leaf);
      leaf->WriteUnlock();
      if (parent != nullptr) parent->WriteUnlock();
      continue;
    }

    if (!leaf->TryUpgradeLock(v)) continue;
    const int count = leaf->count.load();
    const int slot = leaf->LowerBound(key);
    if (slot < count && leaf->keys[slot].load() == key) {
      leaf->WriteUnlock();
      return Status::KeyExists();
    }
    for (int i = count; i > slot; i--) {
      leaf->keys[i].store(leaf->keys[i - 1].load());
      leaf->vals[i].store(leaf->vals[i - 1].load());
    }
    leaf->keys[slot].store(key);
    leaf->vals[slot].store(row);
    leaf->count.store(static_cast<uint16_t>(count + 1));
    leaf->WriteUnlock();
    size_.fetch_add(1, std::memory_order_relaxed);
    return Status::Ok();
  }
}

Row* BTree::Get(uint64_t key) const {
  while (true) {
    Node* node = root_.load(std::memory_order_acquire);
    uint64_t v = node->StableVersion();
    if (node != root_.load(std::memory_order_acquire)) continue;
    bool restart = false;

    while (!node->is_leaf) {
      Inner* inner = static_cast<Inner*>(node);
      const int idx = inner->ChildIndex(key);
      Node* child = inner->children[idx].load();
      if (!inner->Validate(v)) { restart = true; break; }
      const uint64_t cv = child->StableVersion();
      if (!inner->Validate(v)) { restart = true; break; }
      node = child;
      v = cv;
    }
    if (restart) continue;

    Leaf* leaf = static_cast<Leaf*>(node);
    const int slot = leaf->LowerBound(key);
    Row* result =
        (slot < leaf->count.load() && leaf->keys[slot].load() == key)
            ? leaf->vals[slot].load()
            : nullptr;
    if (!leaf->Validate(v)) continue;
    return result;
  }
}

Status BTree::Remove(uint64_t key) {
  while (true) {
    Node* node = root_.load(std::memory_order_acquire);
    uint64_t v = node->StableVersion();
    if (node != root_.load(std::memory_order_acquire)) continue;
    bool restart = false;

    while (!node->is_leaf) {
      Inner* inner = static_cast<Inner*>(node);
      const int idx = inner->ChildIndex(key);
      Node* child = inner->children[idx].load();
      if (!inner->Validate(v)) { restart = true; break; }
      const uint64_t cv = child->StableVersion();
      if (!inner->Validate(v)) { restart = true; break; }
      node = child;
      v = cv;
    }
    if (restart) continue;

    Leaf* leaf = static_cast<Leaf*>(node);
    if (!leaf->TryUpgradeLock(v)) continue;
    const int count = leaf->count.load();
    const int slot = leaf->LowerBound(key);
    if (slot >= count || leaf->keys[slot].load() != key) {
      leaf->WriteUnlock();
      return Status::NotFound();
    }
    for (int i = slot; i + 1 < count; i++) {
      leaf->keys[i].store(leaf->keys[i + 1].load());
      leaf->vals[i].store(leaf->vals[i + 1].load());
    }
    leaf->count.store(static_cast<uint16_t>(count - 1));
    leaf->WriteUnlock();
    size_.fetch_sub(1, std::memory_order_relaxed);
    return Status::Ok();
  }
}

void BTree::ScanImpl(uint64_t start_key, uint64_t end_key, bool bounded,
                     const ScanVisitor& visit) const {
  uint64_t cursor = start_key;
  // Per-leaf snapshot buffer: entries are copied under version validation and
  // only then delivered, so the visitor never sees a torn leaf.
  uint64_t snap_keys[kLeafMax];
  Row* snap_vals[kLeafMax];

  while (true) {
  descend:
    Node* node = root_.load(std::memory_order_acquire);
    uint64_t v = node->StableVersion();
    if (node != root_.load(std::memory_order_acquire)) goto descend;

    while (!node->is_leaf) {
      Inner* inner = static_cast<Inner*>(node);
      const int idx = inner->ChildIndex(cursor);
      Node* child = inner->children[idx].load();
      if (!inner->Validate(v)) goto descend;
      const uint64_t cv = child->StableVersion();
      if (!inner->Validate(v)) goto descend;
      node = child;
      v = cv;
    }

    Leaf* leaf = static_cast<Leaf*>(node);
    while (true) {
      int n = 0;
      const int count = leaf->count.load();
      const int start = leaf->LowerBound(cursor);
      for (int i = start; i < count; i++) {
        const uint64_t k = leaf->keys[i].load();
        if (bounded && k >= end_key) break;
        snap_keys[n] = k;
        snap_vals[n] = leaf->vals[i].load();
        n++;
      }
      const bool past_end = bounded && count > 0 && start < count &&
                            leaf->keys[count - 1].load() >= end_key;
      Leaf* next = leaf->next.load(std::memory_order_acquire);
      if (!leaf->Validate(v)) goto descend;  // re-traverse from `cursor`

      for (int i = 0; i < n; i++) {
        cursor = snap_keys[i] + 1;
        if (!visit(snap_keys[i], snap_vals[i])) return;
      }
      if (past_end || next == nullptr) return;
      // Advance to the chained sibling; empty leaves are skipped by the loop.
      leaf = next;
      v = leaf->StableVersion();
      // `cursor` is already past every delivered key; keys before it in the
      // next leaf (possible after a racing split) are filtered by LowerBound.
    }
  }
}

void BTree::ScanFrom(uint64_t start_key, const ScanVisitor& visit) const {
  ScanImpl(start_key, 0, /*bounded=*/false, visit);
}

void BTree::ScanRange(uint64_t start_key, uint64_t end_key,
                      const ScanVisitor& visit) const {
  if (start_key >= end_key) return;
  ScanImpl(start_key, end_key, /*bounded=*/true, visit);
}

int BTree::Height() const {
  int h = 1;
  const Node* node = root_.load(std::memory_order_acquire);
  while (!node->is_leaf) {
    node = static_cast<const Inner*>(node)->children[0].load();
    h++;
  }
  return h;
}

bool BTree::CheckNode(const Node* node, uint64_t lo, bool has_hi, uint64_t hi,
                      int depth, int leaf_depth) const {
  if (node->is_leaf) {
    if (depth != leaf_depth) return false;
    const Leaf* leaf = static_cast<const Leaf*>(node);
    const int count = leaf->count.load();
    for (int i = 0; i < count; i++) {
      const uint64_t k = leaf->keys[i].load();
      if (i > 0 && leaf->keys[i - 1].load() >= k) return false;
      if (k < lo) return false;
      if (has_hi && k >= hi) return false;
    }
    return true;
  }
  const Inner* inner = static_cast<const Inner*>(node);
  const int count = inner->count.load();
  if (count == 0) return false;
  for (int i = 0; i < count; i++) {
    const uint64_t k = inner->keys[i].load();
    if (i > 0 && inner->keys[i - 1].load() >= k) return false;
    if (k < lo) return false;
    if (has_hi && k > hi) return false;
  }
  for (int i = 0; i <= count; i++) {
    const uint64_t child_lo = (i == 0) ? lo : inner->keys[i - 1].load();
    const bool child_has_hi = (i < count) || has_hi;
    const uint64_t child_hi = (i < count) ? inner->keys[i].load() : hi;
    if (!CheckNode(inner->children[i].load(), child_lo, child_has_hi, child_hi,
                   depth + 1, leaf_depth)) {
      return false;
    }
  }
  return true;
}

bool BTree::CheckInvariants() const {
  const int leaf_depth = Height();
  const Node* root = root_.load(std::memory_order_acquire);
  if (!CheckNode(root, 0, false, 0, 1, leaf_depth)) return false;

  // Leaf chain must be globally sorted and cover exactly `size_` keys.
  const Node* node = root;
  while (!node->is_leaf) {
    node = static_cast<const Inner*>(node)->children[0].load();
  }
  const Leaf* leaf = static_cast<const Leaf*>(node);
  uint64_t prev = 0;
  bool first = true;
  uint64_t total = 0;
  while (leaf != nullptr) {
    for (int i = 0; i < leaf->count.load(); i++) {
      const uint64_t k = leaf->keys[i].load();
      if (!first && k <= prev) return false;
      prev = k;
      first = false;
      total++;
    }
    leaf = leaf->next.load(std::memory_order_acquire);
  }
  return total == Size();
}

}  // namespace rocc
