#pragma once

#include <atomic>
#include <cstdint>

#include "common/cacheline.h"
#include "common/latch.h"
#include "index/index.h"

namespace rocc {

namespace btree_detail {

constexpr int kInnerMax = 64;  ///< max keys per inner node
constexpr int kLeafMax = 64;   ///< max entries per leaf

/// Optimistic version latch for B+Tree nodes (optimistic lock coupling,
/// Leis et al., "The ART of Practical Synchronization"). Bit 0 is the
/// write-lock bit; versions are even when unlocked and advance by 2 per
/// modifying writer, so optimistic readers detect concurrent modification
/// and restart.
///
/// The latch is a seqlock, so it follows Boehm's recipe ("Can Seqlocks Get
/// Along with Programming Language Memory Models?", MSPC 2012): every node
/// field a reader loads without the latch is a relaxed atomic on both sides
/// (RelaxedAtomic), CheckOrRestart puts an acquire fence before it re-reads
/// the version, and taking the write lock puts a release fence before the
/// writer's first store. On x86 both fences only constrain the compiler.
///
///   uint64_t v = latch.ReadLockOrRestart();      // reader: stable snapshot
///   ... read node ...
///   if (!latch.CheckOrRestart(v)) restart;
///
///   if (!latch.UpgradeToWriteLockOrRestart(v)) restart;   // writer
///   ... modify node ...
///   latch.WriteUnlock();
class VersionLatch {
 public:
  static constexpr uint64_t kLockedBit = 1;

  /// Returns a stable (unlocked) version snapshot. Waits out a writer with a
  /// yielding backoff: under fibers the writer may be a suspended fiber.
  uint64_t ReadLockOrRestart() const {
    uint64_t v = word_.load(std::memory_order_acquire);
    if ((v & kLockedBit) == 0) return v;
    SpinBackoff backoff(/*cap_spins=*/256);
    do {
      backoff.Pause();
      v = word_.load(std::memory_order_acquire);
    } while ((v & kLockedBit) != 0);
    return v;
  }

  /// A locked word never equals an unlocked snapshot, so the full-word
  /// compare rejects both a version change and a held lock. The fence keeps
  /// the reader's relaxed field loads ahead of the version re-read.
  bool CheckOrRestart(uint64_t expected) const {
    std::atomic_thread_fence(std::memory_order_acquire);
    return word_.load(std::memory_order_relaxed) == expected;
  }

  /// Atomically upgrade a read snapshot to the write lock; false when the
  /// version moved or the latch is held (the caller restarts).
  bool UpgradeToWriteLockOrRestart(uint64_t expected) {
    if (!word_.compare_exchange_strong(expected, expected | kLockedBit,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
      return false;
    }
    // A reader that loads any store the lock holder makes from here on also
    // sees the lock bit when it re-checks, and restarts.
    std::atomic_thread_fence(std::memory_order_release);
    return true;
  }

  /// Unconditional write lock.
  void WriteLock() {
    while (!UpgradeToWriteLockOrRestart(ReadLockOrRestart())) {
    }
  }

  /// Releases the write lock and advances the version in one step: the
  /// locked word is (v | 1) with v even, so adding 1 yields v + 2.
  void WriteUnlock() { word_.fetch_add(1, std::memory_order_release); }

  bool IsLocked() const {
    return (word_.load(std::memory_order_acquire) & kLockedBit) != 0;
  }

 private:
  std::atomic<uint64_t> word_{0};
};

/// A node field that optimistic readers load while a latched writer stores
/// it. Relaxed on both sides, so each access stays a plain move on x86; the
/// VersionLatch fences order them.
template <typename T>
class RelaxedAtomic {
 public:
  T load() const { return v_.load(std::memory_order_relaxed); }
  void store(T v) { v_.store(v, std::memory_order_relaxed); }

 private:
  std::atomic<T> v_{};
};

/// Node header with an optimistic version latch. Cache-line aligned so the
/// latch word of one hot node never false-shares with a sibling allocation;
/// keys/children start on the next line. `is_leaf` is set before the node is
/// published and never changes.
struct alignas(kCacheLineSize) Node {
  VersionLatch latch;
  bool is_leaf = false;
  RelaxedAtomic<uint16_t> count;

  /// Returns a stable (unlocked) version snapshot, waiting out writers.
  uint64_t StableVersion() const { return latch.ReadLockOrRestart(); }

  bool Validate(uint64_t expected) const {
    return latch.CheckOrRestart(expected);
  }

  bool TryUpgradeLock(uint64_t expected) {
    return latch.UpgradeToWriteLockOrRestart(expected);
  }

  /// Releases the write lock, advancing the version so concurrent optimistic
  /// readers detect the modification and restart.
  void WriteUnlock() { latch.WriteUnlock(); }
};
static_assert(sizeof(Node) == kCacheLineSize,
              "Node header (latch + metadata) should occupy one cache line");
static_assert(alignof(Node) == kCacheLineSize,
              "hot latch words must not straddle or share cache lines");

struct Inner : Node {
  RelaxedAtomic<uint64_t> keys[kInnerMax];
  RelaxedAtomic<Node*> children[kInnerMax + 1];

  Inner() { is_leaf = false; }
  /// Child index to descend into for `key` (first i with key < keys[i]).
  int ChildIndex(uint64_t key) const;
};

struct Leaf : Node {
  RelaxedAtomic<uint64_t> keys[kLeafMax];
  RelaxedAtomic<Row*> vals[kLeafMax];
  std::atomic<Leaf*> next{nullptr};

  Leaf() { is_leaf = true; }
  /// First slot with keys[slot] >= key (== count when all keys are smaller).
  int LowerBound(uint64_t key) const;
};

}  // namespace btree_detail

/// Concurrent B+Tree with optimistic lock coupling.
///
/// - Point reads and range scans are latch-free: they validate node versions
///   and restart on interference.
/// - Writers lock only the nodes they modify; full nodes on the root-to-leaf
///   path are split eagerly while holding the parent lock, so an insert never
///   propagates splits upward after the fact.
/// - Deletion removes the key from its leaf without rebalancing (lazy
///   deletion): under-full leaves remain valid and scans skip them naturally.
///
/// The tree stores `Row*` values and never inspects row contents, so the
/// concurrency-control layer is free to treat rows as versioned records.
class BTree final : public OrderedIndex {
 public:
  BTree();
  ~BTree() override;

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  Status Insert(uint64_t key, Row* row) override;
  Row* Get(uint64_t key) const override;
  Status Remove(uint64_t key) override;
  void ScanFrom(uint64_t start_key, const ScanVisitor& visit) const override;
  void ScanRange(uint64_t start_key, uint64_t end_key,
                 const ScanVisitor& visit) const override;
  uint64_t Size() const override { return size_.load(std::memory_order_relaxed); }

  /// Structural invariant check used by tests: in-node key ordering,
  /// separator bounds, uniform leaf depth, and leaf-chain ordering.
  bool CheckInvariants() const;

  int Height() const;

 private:
  void ScanImpl(uint64_t start_key, uint64_t end_key, bool bounded,
                const ScanVisitor& visit) const;
  void SplitInner(btree_detail::Inner* parent, btree_detail::Inner* node);
  void SplitLeaf(btree_detail::Inner* parent, btree_detail::Leaf* leaf);
  void InsertIntoParentLocked(btree_detail::Inner* parent, uint64_t sep,
                              btree_detail::Node* left, btree_detail::Node* right);
  void FreeRecursive(btree_detail::Node* node);
  bool CheckNode(const btree_detail::Node* node, uint64_t lo, bool has_hi, uint64_t hi,
                 int depth, int leaf_depth) const;

  std::atomic<btree_detail::Node*> root_;
  std::atomic<uint64_t> size_{0};
};

}  // namespace rocc
