//===- igoodlock/IGoodlock.cpp - Algorithm 1 --------------------------------===//
//
// The iterative closure, rebuilt as a parallel, allocation-lean engine:
//
//  * Levels are flat arenas (one contiguous index buffer per level; every
//    chain of level k has exactly k entries, so slices are uniform) instead
//    of per-chain heap vectors.
//  * Held-set disjointness — the O(|Held|^2) inner loop of canExtend — is a
//    single AND of precomputed bitmasks. Lock ids are densified in
//    first-appearance order and folded modulo 64 into the mask: a clear AND
//    always proves disjointness, a set AND is an exact shared-lock witness
//    when the execution has <= 64 distinct locks, and only the rare set-AND
//    above 64 locks pays for a sorted-vector intersection.
//  * Each level's chains are sharded across AnalysisJobs workers. Workers
//    run the exact serial per-chain scan speculatively; a deterministic
//    in-order merge replays their outputs (extension counts locate the
//    MaxChains cut point exactly), so cycles, multiplicities, stats, and
//    truncation are byte-identical to serial for every job count. Levels
//    are natural barriers — the same structure the campaign runner's
//    commit frontier uses.
//  * Cycle dedup keys are rotation-minimal 128-bit structural hashes of
//    per-entry component data (each entry hashed once, no ostringstream),
//    and the happens-before filter memoizes pairwise clock comparisons.
//  * Everything above is append-only in the log's entries, so the closure
//    is a step over a ClosureState: the index, the component hashes and the
//    cycle keys grow with D, and a step that retains its levels extends
//    them semi-naively (old chains x new candidates, new chains x all
//    candidates). runIGoodlock is one step from an empty state;
//    IncrementalIGoodlock keeps the state between steps (dlf-observe's
//    epochs) and reruns from empty when a level would pass MaxChains.
//
//===----------------------------------------------------------------------===//

#include "igoodlock/IGoodlock.h"

#include "support/Hash.h"
#include "telemetry/Metrics.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <thread>
#include <unordered_map>
#include <vector>

using namespace dlf;

namespace {

/// The held-set bit for a dense lock id: ids are folded modulo 64, so a
/// clear AND of two masks *always* proves disjointness, and a set AND is an
/// exact shared-lock witness precisely when the execution has at most 64
/// distinct locks (the mapping is then injective — RelationIndex::MaskExact).
uint64_t lockBit(uint32_t Dense) { return uint64_t(1) << (Dense & 63); }

/// Per-entry precomputed extension data over densified lock ids.
struct EntryMeta {
  /// Folded bits of the held set (see lockBit).
  uint64_t HeldMask = 0;
  /// Folded bits of the *exclusively* held subset. Two held sets conflict
  /// only when a common lock is held exclusively by at least one side —
  /// read-read overlap is not exclusion. For mutex-only logs this equals
  /// HeldMask, so the mode-aware tests degenerate to the old ones.
  uint64_t HeldMaskExcl = 0;
  uint32_t DenseAcquired = 0;
  /// Slice of RelationIndex::HeldSorted holding the sorted dense held set.
  uint32_t HeldBegin = 0;
  uint32_t HeldEnd = 0;
};

/// Per-chain accumulated state: the union of the members' held masks and
/// the last acquired lock (the link the next entry must hold), plus the
/// mode it was requested in (a shared wait is only blocked by an
/// exclusive hold).
struct ChainMeta {
  uint64_t HeldMask = 0;
  uint64_t HeldMaskExcl = 0;
  uint32_t LastDenseAcquired = 0;
  LockMode LastAcquiredMode = LockMode::Exclusive;
};

/// One closure level in flat-arena form: chain I occupies
/// Idx[I*Len, (I+1)*Len), and Meta[I] is its accumulated state.
struct ChainLevel {
  std::vector<uint32_t> Idx;
  std::vector<ChainMeta> Meta;
  unsigned Len = 1;
  /// Retained levels only: ByLast[L] lists the chains whose last acquired
  /// lock is dense id L — the chains a new candidate holding L can extend.
  std::vector<std::vector<uint32_t>> ByLast;

  size_t size() const { return Meta.size(); }
  const uint32_t *chain(size_t I) const { return Idx.data() + I * Len; }

  void push(const uint32_t *Chain, uint32_t Entry, const ChainMeta &M) {
    Idx.insert(Idx.end(), Chain, Chain + Len - 1);
    Idx.push_back(Entry);
    Meta.push_back(M);
  }

  /// Appends \p From's chains, indexing them by last lock.
  void append(const ChainLevel &From) {
    const uint32_t Base = static_cast<uint32_t>(size());
    Idx.insert(Idx.end(), From.Idx.begin(), From.Idx.end());
    Meta.insert(Meta.end(), From.Meta.begin(), From.Meta.end());
    for (uint32_t I = 0; I != From.size(); ++I) {
      uint32_t L = From.Meta[I].LastDenseAcquired;
      if (L >= ByLast.size())
        ByLast.resize(L + 1);
      ByLast[L].push_back(Base + I);
    }
  }
};

/// An extension candidate: an entry holding some lock, with the mode of
/// that held occurrence. A chain whose last acquire is Shared only waits on
/// candidates whose hold of that lock is Exclusive.
struct Candidate {
  uint32_t Entry;
  LockMode Mode;
};

/// Per-relation index, read-only while workers scan. It only ever grows:
/// extend() appends the entries the log gained, and dense ids, masks and
/// candidate lists of earlier entries never change (dense ids are assigned
/// in first-appearance order, so a prefix of D densifies the same way).
struct RelationIndex {
  std::vector<EntryMeta> Meta;
  /// All held sets as sorted dense ids, sliced by EntryMeta::HeldBegin/End.
  std::vector<uint32_t> HeldSorted;
  /// Parallel to HeldSorted: 1 when that occurrence is an exclusive hold
  /// (the >64-lock fallback needs per-occurrence modes, not just masks).
  std::vector<uint8_t> HeldSortedExcl;
  /// For dense lock id L, Cands[L] are the entries whose held set contains
  /// L, in entry order — the extension candidates for a chain whose last
  /// acquired lock is L. Built per held *occurrence* so candidate iteration
  /// order (and thus discovery order) matches the pre-arena engine exactly.
  std::vector<std::vector<Candidate>> Cands;
  std::unordered_map<uint64_t, uint32_t> DenseLock;
  uint32_t NumLocks = 0;
  /// True when lockBit is injective (<= 64 distinct locks): mask tests are
  /// then exact in both directions and the sorted fallback is never needed.
  bool MaskExact = true;

  /// Locks that gained candidates in the last extend(), and for each such
  /// lock L, CandFrom[L] = the size of Cands[L] before it (the first new
  /// candidate). Entries of CandFrom for other locks are stale.
  std::vector<uint32_t> Touched;
  std::vector<uint32_t> CandFrom;
  /// Scratch for extend(): new candidates per lock, 0 for untouched locks.
  std::vector<uint32_t> NewCands;

  uint32_t densify(LockId L) {
    auto [It, Inserted] = DenseLock.try_emplace(L.Raw, NumLocks);
    if (Inserted)
      ++NumLocks;
    return It->second;
  }

  /// Indexes entries [Meta.size(), D.size()).
  void extend(const std::vector<DependencyEntry> &D) {
    // Entries without recorded modes (legacy logs) default to Exclusive,
    // which reproduces the pre-mode engine exactly.
    auto HeldModeOf = [](const DependencyEntry &E, size_t K) {
      return K < E.HeldModes.size() ? E.HeldModes[K] : LockMode::Exclusive;
    };
    for (uint32_t L : Touched)
      NewCands[L] = 0;
    Touched.clear();
    // Held occurrences in entry, then held, order: the candidate order.
    std::vector<std::pair<uint32_t, Candidate>> Occurrences;
    std::vector<std::pair<uint32_t, uint8_t>> HeldBuf;
    for (uint32_t I = static_cast<uint32_t>(Meta.size()); I != D.size(); ++I) {
      EntryMeta &M = Meta.emplace_back();
      M.HeldBegin = static_cast<uint32_t>(HeldSorted.size());
      HeldBuf.clear();
      for (size_t K = 0; K != D[I].Held.size(); ++K) {
        uint32_t Dense = densify(D[I].Held[K]);
        LockMode Mode = HeldModeOf(D[I], K);
        bool Excl = Mode == LockMode::Exclusive;
        HeldBuf.emplace_back(Dense, Excl ? 1 : 0);
        M.HeldMask |= lockBit(Dense);
        if (Excl)
          M.HeldMaskExcl |= lockBit(Dense);
        Occurrences.push_back({Dense, {I, Mode}});
      }
      std::sort(HeldBuf.begin(), HeldBuf.end());
      for (auto [Dense, Excl] : HeldBuf) {
        HeldSorted.push_back(Dense);
        HeldSortedExcl.push_back(Excl);
      }
      M.HeldEnd = static_cast<uint32_t>(HeldSorted.size());
      M.DenseAcquired = densify(D[I].Acquired);
    }
    MaskExact = NumLocks <= 64;

    // Every chain's last lock indexes Cands, held by anyone or not. Each
    // touched list grows once.
    Cands.resize(NumLocks);
    CandFrom.resize(NumLocks);
    NewCands.resize(NumLocks);
    for (const auto &[Dense, C] : Occurrences)
      if (NewCands[Dense]++ == 0)
        Touched.push_back(Dense);
    for (uint32_t L : Touched) {
      CandFrom[L] = static_cast<uint32_t>(Cands[L].size());
      Cands[L].reserve(Cands[L].size() + NewCands[L]);
    }
    for (const auto &[Dense, C] : Occurrences)
      Cands[Dense].push_back(C);
  }
};

/// Would acquiring \p DenseLock in \p WantMode block on \p M's holds? An
/// exclusive want conflicts with any hold; a shared want only with an
/// exclusive hold. Clear folded bits are exact "no"s; set bits fall back
/// to the sorted slice only when the fold is lossy.
bool heldConflicts(const RelationIndex &Ix, const EntryMeta &M,
                   uint32_t DenseLock, LockMode WantMode) {
  uint64_t Mask =
      WantMode == LockMode::Exclusive ? M.HeldMask : M.HeldMaskExcl;
  if (!(Mask & lockBit(DenseLock)))
    return false;
  if (Ix.MaskExact)
    return true;
  auto Begin = Ix.HeldSorted.begin() + M.HeldBegin;
  auto End = Ix.HeldSorted.begin() + M.HeldEnd;
  auto Range = std::equal_range(Begin, End, DenseLock);
  for (auto It = Range.first; It != Range.second; ++It)
    if (WantMode == LockMode::Exclusive ||
        Ix.HeldSortedExcl[static_cast<size_t>(It - Ix.HeldSorted.begin())])
      return true;
  return false;
}

/// Exact mode-aware held-set compatibility of two entries via sorted-merge
/// intersection (the >= 64-dense-ids fallback): a common lock is only a
/// violation when at least one side holds it exclusively.
bool sortedConflictFree(const RelationIndex &Ix, uint32_t AIdx,
                        uint32_t BIdx) {
  const EntryMeta &A = Ix.Meta[AIdx];
  const EntryMeta &B = Ix.Meta[BIdx];
  uint32_t I = A.HeldBegin, J = B.HeldBegin;
  while (I != A.HeldEnd && J != B.HeldEnd) {
    uint32_t AV = Ix.HeldSorted[I], BV = Ix.HeldSorted[J];
    if (AV == BV) {
      bool AnyExcl = false;
      while (I != A.HeldEnd && Ix.HeldSorted[I] == AV)
        AnyExcl |= Ix.HeldSortedExcl[I] != 0, ++I;
      while (J != B.HeldEnd && Ix.HeldSorted[J] == BV)
        AnyExcl |= Ix.HeldSortedExcl[J] != 0, ++J;
      if (AnyExcl)
        return false;
    } else if (AV < BV)
      ++I;
    else
      ++J;
  }
  return true;
}

/// Definition 2 for appending entry \p EIdx to chain \p CI, including the
/// §2.2.3 duplicate suppression (the chain's first thread id is minimal).
/// Thread and acquired-lock distinctness scan the chain (at most
/// MaxCycleLength comparisons); held disjointness is the bitmask path.
bool canExtend(const std::vector<DependencyEntry> &D, const RelationIndex &Ix,
               const ChainLevel &Cur, size_t CI, uint32_t EIdx,
               bool KeepGuardedCycles) {
  const DependencyEntry &E = D[EIdx];
  const EntryMeta &EM = Ix.Meta[EIdx];
  const ChainMeta &CM = Cur.Meta[CI];
  const uint32_t *C = Cur.chain(CI);
  // 1. distinct threads; duplicate suppression: first thread is minimal.
  if (E.Thread < D[C[0]].Thread)
    return false;
  for (unsigned I = 0; I != Cur.Len; ++I) {
    const DependencyEntry &Prev = D[C[I]];
    if (Prev.Thread == E.Thread)
      return false;
    // 2. acquired locks pairwise distinct.
    if (Prev.Acquired == E.Acquired)
      return false;
  }
  // 3. (previous acquired lock held by this entry, in a conflicting mode)
  // is checked at the candidate loop via Candidate::Mode: the list for
  // CM.LastDenseAcquired only contains entries holding that lock, and the
  // per-occurrence mode filter rejects shared-wait-on-shared-hold there.
  // 4. held sets pairwise compatible: a conflict needs a common lock held
  // exclusively by at least one side, so the test ANDs each side's full
  // mask against the other's exclusive mask (for all-exclusive logs both
  // masks coincide and this is the old disjointness test). A clear result
  // is always exact; a set bit is an exact reject when the fold is
  // injective, otherwise the sorted intersection decides. With
  // KeepGuardedCycles the requirement is waived — the overlap is exactly a
  // guard lock, and the pruner downstream classifies (and names) it.
  if (!KeepGuardedCycles &&
      ((CM.HeldMaskExcl & EM.HeldMask) | (CM.HeldMask & EM.HeldMaskExcl))) {
    if (Ix.MaskExact)
      return false;
    for (unsigned I = 0; I != Cur.Len; ++I)
      if (!sortedConflictFree(Ix, C[I], EIdx))
        return false;
  }
  return true;
}

/// Memoizes pairwise clock comparisons per worker: the HB filter re-derives
/// the same member-pair orderings for every cycle those members close.
class HbCache {
public:
  explicit HbCache(const std::vector<DependencyEntry> &D) : D(D) {}

  bool concurrent(uint32_t I, uint32_t J) {
    uint64_t Key = I < J ? (uint64_t(I) << 32) | J : (uint64_t(J) << 32) | I;
    auto [It, Inserted] = Memo.try_emplace(Key, false);
    if (Inserted)
      It->second = vcConcurrent(D[I].Clock, D[J].Clock);
    return It->second;
  }

private:
  const std::vector<DependencyEntry> &D;
  std::unordered_map<uint64_t, bool> Memo;
};

/// Happens-before feasibility of chain + closing entry: every member pair
/// concurrent (pair order matches the serial engine, though only the
/// boolean result matters).
bool hbFeasible(const uint32_t *C, unsigned Len, uint32_t Closing,
                HbCache &Hb) {
  for (unsigned I = 0; I != Len; ++I) {
    for (unsigned J = I + 1; J != Len; ++J)
      if (!Hb.concurrent(C[I], C[J]))
        return false;
    if (!Hb.concurrent(C[I], Closing))
      return false;
  }
  return true;
}

/// A potential cycle discovered by a worker, with enough ordering
/// information (ExtsBefore) for the merge to replay the serial engine's
/// MaxChains cut exactly.
struct CycleRec {
  uint32_t ChainIdx; ///< index into the scanned level
  uint32_t Closing;  ///< closing dependency entry
  uint64_t ExtsBefore; ///< worker-local extensions emitted before this cycle
  bool HbOk;
};

/// The chains one shard scans: positions [Begin, End) of List (or of Level
/// itself when List is null), each tried against its last lock's candidates
/// from CandFrom[lock] on (all of them when CandFrom is null).
struct ShardWork {
  const ChainLevel *Level = nullptr;
  const std::vector<uint32_t> *List = nullptr;
  const std::vector<uint32_t> *CandFrom = nullptr;
  size_t Begin = 0;
  size_t End = 0;
};

/// One worker's speculative output for a shard of the current level.
struct WorkerOut {
  ShardWork Work;
  ChainLevel Next;
  std::vector<CycleRec> Cycles;
  /// Cumulative extension count after each chain of the shard (locates the
  /// MaxChains cut chain at merge time).
  std::vector<uint64_t> ExtsAfterChain;
};

/// The serial per-chain scan of one shard. This is the only place
/// extension work happens; the parallel engine runs it once per shard and
/// the serial engine runs it once with one shard, so their per-chain
/// behavior is identical by construction — and an incremental step runs
/// the very same scan over its old-chain and new-chain shards.
void processShard(const std::vector<DependencyEntry> &D,
                  const RelationIndex &Ix, const IGoodlockOptions &Opts,
                  const ShardWork &W, WorkerOut &Out) {
  HbCache Hb(D);
  const ChainLevel &Cur = *W.Level;
  Out.Work = W;
  Out.Next.Len = Cur.Len + 1;
  Out.ExtsAfterChain.reserve(W.End - W.Begin);
  const unsigned Len = Cur.Len;
  uint64_t Exts = 0;
  for (size_t P = W.Begin; P != W.End; ++P) {
    const size_t CI = W.List ? (*W.List)[P] : P;
    const ChainMeta &CM = Cur.Meta[CI];
    const uint32_t *Chain = Cur.chain(CI);
    const EntryMeta &Head = Ix.Meta[Chain[0]];
    const std::vector<Candidate> &Cands = Ix.Cands[CM.LastDenseAcquired];
    for (size_t C = W.CandFrom ? (*W.CandFrom)[CM.LastDenseAcquired] : 0;
         C != Cands.size(); ++C) {
      const uint32_t EIdx = Cands[C].Entry;
      // The wait-for link: the chain's pending acquire must actually block
      // on this candidate's hold. Only a shared wait on a shared hold
      // fails (mutex-only logs never skip here).
      if (!lockModesConflict(CM.LastAcquiredMode, Cands[C].Mode))
        continue;
      if (!canExtend(D, Ix, Cur, CI, EIdx, Opts.KeepGuardedCycles))
        continue;
      const EntryMeta &EM = Ix.Meta[EIdx];
      // Definition 3: cycle when the new acquired lock is held by the
      // chain's first thread in a conflicting mode. Cycles are reported,
      // not extended (no complex cycles, §2.2.2).
      if (heldConflicts(Ix, Head, EM.DenseAcquired, D[EIdx].AcquiredMode)) {
        bool HbOk = !Opts.FilterByHappensBefore ||
                    hbFeasible(Chain, Len, EIdx, Hb);
        Out.Cycles.push_back(
            {static_cast<uint32_t>(CI), EIdx, Exts, HbOk});
        continue;
      }
      Out.Next.push(Chain, EIdx,
                    {CM.HeldMask | EM.HeldMask,
                     CM.HeldMaskExcl | EM.HeldMaskExcl, EM.DenseAcquired,
                     D[EIdx].AcquiredMode});
      ++Exts;
    }
    Out.ExtsAfterChain.push_back(Exts);
  }
}

/// Shards \p N chains of \p Proto's work across up to \p Jobs workers and
/// appends their outputs to \p Outs in shard order. Tiny scans stay on one
/// shard — the single-shard path *is* the serial engine, so results are
/// identical either way.
void scanShards(const std::vector<DependencyEntry> &D, const RelationIndex &Ix,
                const IGoodlockOptions &Opts, unsigned Jobs, ShardWork Proto,
                size_t N, std::vector<WorkerOut> &Outs) {
  if (N == 0)
    return;
  size_t Shards = 1;
  if (Jobs > 1 && Opts.MinChainsPerShard && N >= 2 * Opts.MinChainsPerShard)
    Shards = std::min<size_t>(Jobs, N / Opts.MinChainsPerShard);
  Shards = std::max<size_t>(Shards, 1);
  const size_t First = Outs.size();
  Outs.resize(First + Shards);
  auto RunShard = [&](size_t S) {
    ShardWork W = Proto;
    W.Begin = N * S / Shards;
    W.End = N * (S + 1) / Shards;
    processShard(D, Ix, Opts, W, Outs[First + S]);
  };
  std::vector<std::thread> Workers;
  Workers.reserve(Shards - 1);
  for (size_t S = 1; S < Shards; ++S)
    Workers.emplace_back(RunShard, S);
  RunShard(0);
  for (std::thread &W : Workers)
    W.join();
}

} // namespace

/// Everything the closure has derived from a prefix of the log's entries.
/// Retained states also keep every level's chains, which is what lets the
/// next step extend them instead of starting over.
struct dlf::ClosureState {
  explicit ClosureState(bool Retain) : Retain(Retain) {}

  const bool Retain;
  RelationIndex Ix;
  /// Per-entry component hashes — the cycle dedup key material, equivalent
  /// to the old string key(ExecutionIndex, UseContext=true) — computed
  /// lazily so an entry is hashed once no matter how many cycles it closes.
  std::vector<Hash128> CompHash;
  std::vector<bool> CompHashReady;
  std::unordered_map<Hash128, size_t> CycleKeyToIdx;
  std::vector<AbstractCycle> Cycles;
  /// Retained only: Levels[K] holds every chain of length K + 1.
  std::vector<ChainLevel> Levels;
  /// Some level hit MaxChains and was cut: the levels are incomplete, so
  /// the state cannot be stepped further.
  bool Cut = false;
};

namespace {

Hash128 componentHash(const LockDependencyLog &Log, ClosureState &S,
                      uint32_t EIdx) {
  if (!S.CompHashReady[EIdx]) {
    const DependencyEntry &E = Log.entries()[EIdx];
    const Abstraction &T =
        Log.threadInfo(E.Thread).Abs.select(AbstractionKind::ExecutionIndex);
    const Abstraction &L =
        Log.lockInfo(E.Acquired).Abs.select(AbstractionKind::ExecutionIndex);
    Hasher128 H;
    // Variable-length sequences are length-framed so (thread, lock,
    // context) element streams cannot alias each other.
    H.add(T.Elements.size());
    for (uint32_t El : T.Elements)
      H.add(El);
    H.add(L.Elements.size());
    for (uint32_t El : L.Elements)
      H.add(El);
    H.add(E.Context.size());
    for (Label Site : E.Context)
      H.add(Site.raw());
    S.CompHash[EIdx] = H.finish();
    S.CompHashReady[EIdx] = true;
  }
  return S.CompHash[EIdx];
}

/// Collapses abstract duplicates, keyed by the rotation-minimal structural
/// hash (ties between rotations yield identical sequences, so any minimal
/// choice streams the same key).
void reportCycle(const LockDependencyLog &Log, ClosureState &S,
                 const uint32_t *Chain, unsigned Len, uint32_t Closing,
                 std::vector<Hash128> &MemberBuf) {
  const std::vector<DependencyEntry> &D = Log.entries();
  const size_t M = Len + 1;
  MemberBuf.clear();
  for (unsigned I = 0; I != Len; ++I)
    MemberBuf.push_back(componentHash(Log, S, Chain[I]));
  MemberBuf.push_back(componentHash(Log, S, Closing));
  size_t Best = 0;
  for (size_t R = 1; R != M; ++R)
    for (size_t I = 0; I != M; ++I) {
      const Hash128 &A = MemberBuf[(R + I) % M];
      const Hash128 &B = MemberBuf[(Best + I) % M];
      if (A != B) {
        if (A < B)
          Best = R;
        break;
      }
    }
  Hasher128 H;
  H.add(M);
  for (size_t I = 0; I != M; ++I) {
    const Hash128 &Part = MemberBuf[(Best + I) % M];
    H.add(Part.Hi);
    H.add(Part.Lo);
  }
  auto [It, Inserted] = S.CycleKeyToIdx.try_emplace(H.finish(), S.Cycles.size());
  if (!Inserted) {
    ++S.Cycles[It->second].Multiplicity;
    return;
  }
  AbstractCycle Cycle;
  auto AddComponent = [&](const DependencyEntry &E) {
    CycleComponent Comp;
    Comp.Thread = E.Thread;
    Comp.ThreadName = Log.threadInfo(E.Thread).Name;
    Comp.ThreadAbs = Log.threadInfo(E.Thread).Abs;
    Comp.Lock = E.Acquired;
    Comp.LockName = Log.lockInfo(E.Acquired).Name;
    Comp.LockAbs = Log.lockInfo(E.Acquired).Abs;
    Comp.Context = E.Context;
    Cycle.Components.push_back(std::move(Comp));
  };
  for (unsigned I = 0; I != Len; ++I)
    AddComponent(D[Chain[I]]);
  AddComponent(D[Closing]);
  S.Cycles.push_back(std::move(Cycle));
}

/// One closure step: brings \p S up to date with every entry of \p Log.
///
/// A level's chains split into old ones (every member consumed by an
/// earlier step) and new ones (at least one member new), so level k+1's new
/// chains are old(k) x new candidates plus new(k) x all candidates, and its
/// new cycle instances close the same way; old x old was done before. From
/// an empty state nothing is old, and the step is exactly the one-shot
/// engine: level 1 is D itself, all cycles of length k are found before any
/// of length k+1, and MaxChains cuts a level where the serial engine would.
///
/// A step over a non-empty state cannot reproduce that cut — its discovery
/// order differs — so when a level would pass MaxChains it returns false,
/// leaving \p S unusable, and the caller starts over from an empty state.
/// \p LevelChains receives the chains materialized per level.
bool extendClosure(const LockDependencyLog &Log, const IGoodlockOptions &Opts,
                   ClosureState &S, IGoodlockStats &Stats,
                   std::vector<uint64_t> &LevelChains) {
  const std::vector<DependencyEntry> &D = Log.entries();
  const uint32_t From = static_cast<uint32_t>(S.Ix.Meta.size());
  const unsigned Jobs =
      Opts.AnalysisJobs
          ? Opts.AnalysisJobs
          : std::max(1u, std::thread::hardware_concurrency());
  Stats.Entries = D.size();
  Stats.JobsUsed = Jobs;

  S.Ix.extend(D);
  const RelationIndex &Ix = S.Ix;
  S.CompHash.resize(D.size());
  S.CompHashReady.resize(D.size(), false);

  // New level-1 chains, restricted to entries that can head a cycle chain:
  // the head's held set must eventually contain the closing lock, so an
  // empty held set can never close (Definition 3 needs l_m ∈ L_1).
  ChainLevel New;
  New.Len = 1;
  for (uint32_t I = From; I != D.size(); ++I) {
    if (D[I].Held.empty())
      continue;
    New.Idx.push_back(I);
    New.Meta.push_back({Ix.Meta[I].HeldMask, Ix.Meta[I].HeldMaskExcl,
                        Ix.Meta[I].DenseAcquired, D[I].AcquiredMode});
  }
  Stats.ChainsExplored += New.size();

  std::vector<Hash128> MemberBuf;
  std::vector<uint32_t> OldWork;
  for (unsigned Len = 1; Len < Opts.MaxCycleLength &&
                         (New.size() != 0 || Len <= S.Levels.size());
       ++Len) {
    ++Stats.Iterations;

    // Old chains that can meet a new candidate: exactly those ending in a
    // lock some new entry holds.
    const ChainLevel *Old = Len <= S.Levels.size() ? &S.Levels[Len - 1]
                                                   : nullptr;
    OldWork.clear();
    if (Old)
      for (uint32_t L : Ix.Touched)
        if (L < Old->ByLast.size())
          OldWork.insert(OldWork.end(), Old->ByLast[L].begin(),
                         Old->ByLast[L].end());

    std::vector<WorkerOut> Outs;
    scanShards(D, Ix, Opts, Jobs, {Old, &OldWork, &Ix.CandFrom},
               OldWork.size(), Outs);
    scanShards(D, Ix, Opts, Jobs, {&New, nullptr, nullptr}, New.size(),
               Outs);

    // Deterministic in-order merge. The serial engine aborts the whole
    // level at the first extension attempt past MaxChains; the replay
    // commits exactly the extensions serial would have, keeps the cycles
    // discovered before the aborting attempt, and counts every chain from
    // the cut chain on as dropped.
    const size_t OldNext = Len < S.Levels.size() ? S.Levels[Len].size() : 0;
    ChainLevel Next;
    Next.Len = Len + 1;
    bool LevelCut = false;
    uint64_t NextCount = 0;
    for (WorkerOut &Out : Outs) {
      const size_t ShardChains = Out.Work.End - Out.Work.Begin;
      if (LevelCut) {
        Stats.ChainsDropped += ShardChains;
        continue;
      }
      const uint64_t TotalExts =
          Out.ExtsAfterChain.empty() ? 0 : Out.ExtsAfterChain.back();
      const uint64_t Capacity = Opts.MaxChains - OldNext - NextCount;
      uint64_t KeptExts = TotalExts;
      if (TotalExts > Capacity) {
        if (From != 0)
          return false;
        KeptExts = Capacity;
        LevelCut = true;
        S.Cut = true;
        Stats.Truncated = true;
        size_t CutChain = static_cast<size_t>(
            std::upper_bound(Out.ExtsAfterChain.begin(),
                             Out.ExtsAfterChain.end(), Capacity) -
            Out.ExtsAfterChain.begin());
        Stats.ChainsDropped += ShardChains - CutChain;
      }
      Next.Idx.insert(Next.Idx.end(), Out.Next.Idx.begin(),
                      Out.Next.Idx.begin() +
                          static_cast<size_t>(KeptExts) * Next.Len);
      Next.Meta.insert(Next.Meta.end(), Out.Next.Meta.begin(),
                       Out.Next.Meta.begin() + static_cast<size_t>(KeptExts));
      for (const CycleRec &R : Out.Cycles) {
        // Cycles examined at or past the aborting extension attempt were
        // never reached by the serial engine.
        if (NextCount + R.ExtsBefore > Opts.MaxChains)
          break;
        if (!R.HbOk) {
          ++Stats.FilteredByHb;
        } else if (S.Cycles.size() < Opts.MaxCycles) {
          reportCycle(Log, S, Out.Work.Level->chain(R.ChainIdx), Len,
                      R.Closing, MemberBuf);
        } else {
          Stats.Truncated = true;
          ++Stats.CyclesDropped;
        }
      }
      NextCount += KeptExts;
    }
    Stats.ChainsExplored += NextCount;
    LevelChains.push_back(NextCount);
    if (S.Retain) {
      if (Len > S.Levels.size())
        S.Levels.emplace_back().Len = Len;
      S.Levels[Len - 1].append(New);
    }
    New = std::move(Next);
  }
  // The top level is never extended, but its size still bounds the next
  // step's MaxChains check.
  if (S.Retain && New.size() != 0) {
    if (New.Len > S.Levels.size())
      S.Levels.emplace_back().Len = New.Len;
    S.Levels[New.Len - 1].append(New);
  }
  return true;
}

uint64_t microsSince(std::chrono::steady_clock::time_point Start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - Start)
          .count());
}

} // namespace

std::vector<AbstractCycle> dlf::runIGoodlock(const LockDependencyLog &Log,
                                             const IGoodlockOptions &Opts,
                                             IGoodlockStats *Stats) {
  auto StartTime = std::chrono::steady_clock::now();
  ClosureState S(/*Retain=*/false);
  IGoodlockStats LocalStats;
  std::vector<uint64_t> LevelChains;
  // From an empty state a step never declines.
  extendClosure(Log, Opts, S, LocalStats, LevelChains);
  LocalStats.ElapsedMicros = microsSince(StartTime);

  if (telemetry::enabled()) {
    // Bulk-record from the stats the closure already keeps, so telemetry
    // stays an exact mirror of IGoodlockStats (and jobs-invariant, since
    // the merged stats themselves are).
    telemetry::Registry &R = telemetry::Registry::global();
    for (uint64_t N : LevelChains)
      R.histogram("dlf_igoodlock_level_chains").observe(N);
    R.counter("dlf_igoodlock_runs_total").inc();
    R.counter("dlf_igoodlock_entries_total").inc(LocalStats.Entries);
    R.counter("dlf_igoodlock_chains_total").inc(LocalStats.ChainsExplored);
    R.counter("dlf_igoodlock_cycles_total").inc(S.Cycles.size());
    R.counter("dlf_igoodlock_chains_dropped_total")
        .inc(LocalStats.ChainsDropped);
    R.counter("dlf_igoodlock_cycles_dropped_total")
        .inc(LocalStats.CyclesDropped);
    R.counter("dlf_igoodlock_hb_filtered_total").inc(LocalStats.FilteredByHb);
    R.histogram("dlf_igoodlock_elapsed_us").observe(LocalStats.ElapsedMicros);
  }
  if (Stats)
    *Stats = LocalStats;
  return std::move(S.Cycles);
}

IncrementalIGoodlock::IncrementalIGoodlock(const IGoodlockOptions &Opts)
    : Opts(Opts), State(std::make_unique<ClosureState>(/*Retain=*/true)) {}

IncrementalIGoodlock::~IncrementalIGoodlock() = default;

size_t IncrementalIGoodlock::step(const LockDependencyLog &Log,
                                  IGoodlockStats *Stats) {
  auto StartTime = std::chrono::steady_clock::now();
  IGoodlockStats LocalStats;
  std::vector<uint64_t> LevelChains;
  bool Stepped = false;
  if (State->Retain && !State->Cut)
    Stepped = extendClosure(Log, Opts, *State, LocalStats, LevelChains);
  if (!Stepped) {
    // A level passed MaxChains. It always will from now on (levels only
    // grow with D), so this and every later step is a full run from an
    // empty state, and retaining its levels would be wasted.
    State = std::make_unique<ClosureState>(/*Retain=*/false);
    LocalStats = IGoodlockStats();
    extendClosure(Log, Opts, *State, LocalStats, LevelChains);
    ++FullRuns;
  }
  LocalStats.ElapsedMicros = microsSince(StartTime);
  if (Stats)
    *Stats = LocalStats;
  return State->Cycles.size();
}
