//===- substrates/dbcp/Dbcp.cpp - Apache DBCP analogue ----------------------===//

#include "substrates/dbcp/Dbcp.h"

#include "runtime/Thread.h"
#include "substrates/Stagger.h"

using namespace dlf;
using namespace dlf::dbcp;

// -- Connection ---------------------------------------------------------------

Connection::Connection(const std::string &Name, Label Site,
                       ConnectionPool &Pool)
    : Monitor("connection:" + Name, Site, &Pool), Pool(Pool), Name(Name) {
  DLF_NEW_OBJECT(this, &Pool);
}

void Connection::prepareStatement(const std::string &Sql) {
  DLF_SCOPE("Connection::prepareStatement");
  MutexGuard Guard(Monitor, DLF_NAMED_SITE("Connection::prepareStatement/conn"));
  Statements.push_back(Sql);
  Pool.noteBorrow(); // locks the pool (inner)
}

void Connection::close() {
  DLF_SCOPE("Connection::close");
  MutexGuard Guard(Monitor, DLF_NAMED_SITE("Connection::close/conn"));
  Closed = true;
  Pool.noteReturn(); // locks the pool (inner)
}

bool Connection::isClosed() const {
  DLF_SCOPE("Connection::isClosed");
  MutexGuard Guard(Monitor, DLF_NAMED_SITE("Connection::isClosed/conn"));
  return Closed;
}

// -- ConnectionPool -----------------------------------------------------------

ConnectionPool::ConnectionPool(Label Site)
    : Monitor("keyedObjectPool", Site, nullptr) {
  DLF_NEW_OBJECT(this, nullptr);
}

Connection &ConnectionPool::createConnection(const std::string &Name) {
  DLF_SCOPE("ConnectionPool::createConnection");
  MutexGuard Guard(Monitor, DLF_NAMED_SITE("ConnectionPool::create/pool"));
  Connections.push_back(std::make_unique<Connection>(
      Name, DLF_NAMED_SITE("ConnectionPool::newConnection"), *this));
  return *Connections.back();
}

void ConnectionPool::closeStatement(Connection &Conn, const std::string &Sql) {
  DLF_SCOPE("ConnectionPool::closeStatement");
  MutexGuard Guard(Monitor, DLF_NAMED_SITE("ConnectionPool::closeStmt/pool"));
  MutexGuard Inner(Conn.Monitor,
                   DLF_NAMED_SITE("ConnectionPool::closeStmt/conn"));
  auto &Stmts = Conn.Statements;
  for (size_t I = Stmts.size(); I-- > 0;)
    if (Stmts[I] == Sql)
      Stmts.erase(Stmts.begin() + static_cast<long>(I));
}

void ConnectionPool::evictIdle(Connection &Conn) {
  DLF_SCOPE("ConnectionPool::evictIdle");
  MutexGuard Guard(Monitor, DLF_NAMED_SITE("ConnectionPool::evictIdle/pool"));
  MutexGuard Inner(Conn.Monitor,
                   DLF_NAMED_SITE("ConnectionPool::evictIdle/conn"));
  Conn.Closed = true;
}

size_t ConnectionPool::activeCount() const {
  DLF_SCOPE("ConnectionPool::activeCount");
  MutexGuard Guard(Monitor, DLF_NAMED_SITE("ConnectionPool::activeCount/pool"));
  return Active;
}

void ConnectionPool::noteBorrow() {
  DLF_SCOPE("ConnectionPool::noteBorrow");
  MutexGuard Guard(Monitor, DLF_NAMED_SITE("ConnectionPool::noteBorrow/pool"));
  ++Active;
}

void ConnectionPool::noteReturn() {
  DLF_SCOPE("ConnectionPool::noteReturn");
  MutexGuard Guard(Monitor, DLF_NAMED_SITE("ConnectionPool::noteReturn/pool"));
  if (Active)
    --Active;
}

// -- Harness ------------------------------------------------------------------

namespace {

/// Spawns every DBCP worker through one call site (thread-pool style), so
/// the worker thread objects collapse under the k-object abstraction; see
/// the logging harness for the Figure 2 rationale.
Thread spawnDbcpWorker(ConnectionPool &Pool, std::function<void()> Body,
                       const std::string &Name) {
  DLF_SCOPE("dbcp::spawnWorker");
  return Thread(std::move(Body), Name,
                DLF_NAMED_SITE("dbcp::spawnWorker/thread"), &Pool);
}

} // namespace

void dbcp::runDbcpHarness() {
  DLF_SCOPE("dbcp::runDbcpHarness");
  ConnectionPool Pool(DLF_SITE());
  Connection &C1 = Pool.createConnection("c1");
  Connection &C2 = Pool.createConnection("c2");
  // Decoy connections from the same factory site: indistinguishable from
  // C1/C2 under the k-object abstraction, so variant 1 pauses their
  // threads too.
  Connection &C3 = Pool.createConnection("decoy1");
  Connection &C4 = Pool.createConnection("decoy2");

  // Cycle 1: prepareStatement (conn->pool) vs closeStatement (pool->conn),
  // with a §4 gate on the connection monitor in the pool-side thread.
  Thread Prepare = spawnDbcpWorker(
      Pool,
      [&] {
        DLF_SCOPE("dbcp::prepareWorker");
        C1.prepareStatement("select 1");
      },
      "dbcp.prepare");
  Thread CloseStmt = spawnDbcpWorker(
      Pool,
      [&] {
        DLF_SCOPE("dbcp::closeStmtWorker");
        // Outside the Active scheduler a yield is nanoseconds, so on a
        // loaded host both partners can sit in their windows together and
        // the plain program deadlocks; enter well after prepare left its
        // window. Under the Active scheduler this is still stagger(2).
        staggerWall(2, 5000);
        (void)C1.isClosed(); // gate: connection monitor, alone
        Pool.closeStatement(C1, "select 1");
      },
      "dbcp.closeStmt");

  // Cycle 2: Connection::close (conn->pool) vs evictIdle (pool->conn).
  Thread CloseConn = spawnDbcpWorker(
      Pool,
      [&] {
        DLF_SCOPE("dbcp::closeConnWorker");
        C2.close();
      },
      "dbcp.closeConn");
  Thread Evict = spawnDbcpWorker(
      Pool,
      [&] {
        DLF_SCOPE("dbcp::evictWorker");
        staggerWall(2, 5000); // after close's window, as closeStmt above
        (void)C2.isClosed(); // gate: connection monitor, alone
        Pool.evictIdle(C2);
      },
      "dbcp.evict");

  // Decoy workers on C3/C4: same code paths, no inverted partners, so they
  // add no cycles — but they pause under coarse abstractions while holding
  // the shared pool/connection monitors.
  Thread DecoyPrepare = spawnDbcpWorker(
      Pool,
      [&] {
        DLF_SCOPE("dbcp::prepareWorker");
        stagger(1);
        C3.prepareStatement("select decoy");
      },
      "dbcp.decoyPrepare");
  Thread DecoyEvict = spawnDbcpWorker(
      Pool,
      [&] {
        DLF_SCOPE("dbcp::evictWorker");
        stagger(3);
        Pool.evictIdle(C4);
      },
      "dbcp.decoyEvict");

  // Benign pool monitoring traffic.
  Thread Monitor = spawnDbcpWorker(
      Pool,
      [&] {
        DLF_SCOPE("dbcp::monitorWorker");
        for (int I = 0; I != 5; ++I) {
          (void)Pool.activeCount();
          stagger(2);
        }
      },
      "dbcp.monitor");

  Prepare.join();
  CloseStmt.join();
  CloseConn.join();
  Evict.join();
  DecoyPrepare.join();
  DecoyEvict.join();
  Monitor.join();
}
