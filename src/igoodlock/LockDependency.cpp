//===- igoodlock/LockDependency.cpp - The lock dependency relation ---------===//

#include "igoodlock/LockDependency.h"

#include <cassert>

using namespace dlf;

void LockDependencyLog::onThreadCreated(const ThreadRecord &T) {
  ThreadMeta[T.Id] = {T.Name, T.Abs};
}

void LockDependencyLog::onLockCreated(const LockRecord &L) {
  LockMeta[L.Id] = {L.Name, L.Abs};
}

namespace {

/// Slot hash of a trie key: a multiply-xorshift mix of the full key, so
/// dense small ids and sparse 64-bit ids spread alike.
uint64_t trieHash(uint32_t Parent, uint64_t Lock, uint32_t Site,
                  LockMode Mode) {
  uint64_t H = Lock * 0x9e3779b97f4a7c15ULL;
  H ^= ((static_cast<uint64_t>(Parent) << 32) | Site) * 0xc2b2ae3d27d4eb4fULL;
  H ^= static_cast<uint64_t>(Mode);
  H ^= H >> 29;
  H *= 0xbf58476d1ce4e5b9ULL;
  return H ^ (H >> 32);
}

} // namespace

void LockDependencyLog::growTrie() {
  std::vector<TrieSlot> Old(Trie.empty() ? 256 : Trie.size() * 2);
  Old.swap(Trie);
  const size_t Mask = Trie.size() - 1;
  for (const TrieSlot &S : Old) {
    if (S.Node == 0)
      continue;
    size_t I = trieHash(S.Parent, S.Lock, S.Site, S.Mode) & Mask;
    while (Trie[I].Node != 0)
      I = (I + 1) & Mask;
    Trie[I] = S;
  }
}

LockDependencyLog::TrieSlot &
LockDependencyLog::trieNode(uint32_t Parent, uint64_t Lock, uint32_t Site,
                            LockMode Mode) {
  if (2 * (static_cast<size_t>(TrieNodes) + 1) > Trie.size())
    growTrie();
  const size_t Mask = Trie.size() - 1;
  for (size_t I = trieHash(Parent, Lock, Site, Mode) & Mask;;
       I = (I + 1) & Mask) {
    TrieSlot &S = Trie[I];
    if (S.Node == 0) {
      S.Lock = Lock;
      S.Parent = Parent;
      S.Site = Site;
      S.Mode = Mode;
      S.Node = ++TrieNodes;
      return S;
    }
    if (S.Lock == Lock && S.Parent == Parent && S.Site == Site &&
        S.Mode == Mode)
      return S;
  }
}

void LockDependencyLog::onAcquireExecuted(
    const ThreadRecord &T, const LockRecord &L,
    const std::vector<LockStackEntry> &HeldBefore, Label Site, LockMode Mode) {
  ++AcquireEvents;

  // Deduplicate before building anything: D is a relation, and loops
  // re-acquiring the same locks in the same context would otherwise flood
  // the closure (and the acquire hot path with allocations). Walk the
  // thread's context trie along the held stack to the acquired lock's
  // node; modes are part of each node, so a read and a write acquisition
  // of the same lock in the same context stay distinct entries.
  uint32_t Node = trieNode(0, T.Id.Raw, 0, LockMode::Exclusive).Node;
  for (const LockStackEntry &E : HeldBefore)
    Node = trieNode(Node, E.Lock.Raw, E.Site.raw(), E.Mode).Node;
  TrieSlot &Leaf = trieNode(Node, L.Id.Raw, Site.raw(), Mode);
  if (Leaf.Recorded)
    return;
  Leaf.Recorded = true;

  DependencyEntry &Entry = Entries.emplace_back();
  Entry.Thread = T.Id;
  Entry.Acquired = L.Id;
  Entry.AcquiredMode = Mode;
  Entry.Held.reserve(HeldBefore.size());
  Entry.HeldModes.reserve(HeldBefore.size());
  Entry.Context.reserve(HeldBefore.size() + 1);
  for (const LockStackEntry &E : HeldBefore) {
    Entry.Held.push_back(E.Lock);
    Entry.HeldModes.push_back(E.Mode);
    Entry.Context.push_back(E.Site);
  }
  Entry.Context.push_back(Site);
  Entry.Clock = T.Clock;
}

const ObjectInfo &LockDependencyLog::threadInfo(ThreadId Id) const {
  auto It = ThreadMeta.find(Id);
  assert(It != ThreadMeta.end() && "unknown thread in dependency log");
  return It->second;
}

const ObjectInfo &LockDependencyLog::lockInfo(LockId Id) const {
  auto It = LockMeta.find(Id);
  assert(It != LockMeta.end() && "unknown lock in dependency log");
  return It->second;
}
