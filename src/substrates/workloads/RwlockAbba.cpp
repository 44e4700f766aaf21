//===- substrates/workloads/RwlockAbba.cpp - Reader-held ABBA ---------------===//

#include "substrates/workloads/Workloads.h"

#include "runtime/RwLock.h"
#include "runtime/Runtime.h"
#include "runtime/Thread.h"
#include "substrates/Stagger.h"

using namespace dlf;

// A deadlock that exists only in a reader/writer alphabet: two table
// maintenance threads each take the registry and their source table on the
// read side, then the destination table on the write side, with the table
// order inverted. Under a mutex-only model the shared registry would look
// like a gate guarding the inversion (every participant "holds" it) and the
// closure would discard the cycle; with modes, read-read overlap on the
// registry and on the source tables excludes nothing, so both threads can
// sit inside the window together — scan holds tableA(r) wanting tableB(w)
// while merge holds tableB(r) wanting tableA(w). Phase II reproduces it by
// pausing each thread before its write acquire.
void workloads::runRwlockAbba() {
  DLF_SCOPE("workloads::runRwlockAbba");
  RwLock Registry("registry", DLF_SITE(), nullptr);
  RwLock TableA("tableA", DLF_SITE(), nullptr);
  RwLock TableB("tableB", DLF_SITE(), nullptr);
  int RowsA = 100;
  int RowsB = 100;

  Thread Scan(
      [&] {
        DLF_SCOPE("rwlockAbba::scan");
        stagger(2);
        RwReadGuard Gate(Registry, DLF_NAMED_SITE("scan::gate/registry"));
        RwReadGuard From(TableA, DLF_NAMED_SITE("scan::from/tableA"));
        stagger(1);
        RwWriteGuard To(TableB, DLF_NAMED_SITE("scan::to/tableB"));
        RowsB += RowsA;
      },
      "rwlockAbba.scan", DLF_SITE(), nullptr);

  Thread Merge(
      [&] {
        DLF_SCOPE("rwlockAbba::merge");
        // Read-side holds can coexist, so the two inversion windows are
        // not mutually exclusive the way a mutex ABBA's are: without real
        // separation both threads sit in their windows together and the
        // plain program deadlocks outright. Enter well after scan has
        // drained its (nanosecond-wide) window; under the Active
        // scheduler this is an ordinary two-point stagger and Phase II
        // overlaps the windows by pausing scan instead.
        staggerWall(2, 10000);
        RwReadGuard Gate(Registry, DLF_NAMED_SITE("merge::gate/registry"));
        RwReadGuard From(TableB, DLF_NAMED_SITE("merge::from/tableB"));
        stagger(1);
        RwWriteGuard To(TableA, DLF_NAMED_SITE("merge::to/tableA"));
        RowsA += RowsB;
      },
      "rwlockAbba.merge", DLF_SITE(), nullptr);

  Scan.join();
  Merge.join();
}
