//===- substrates/jigsaw/Jigsaw.cpp - Jigsaw web server analogue ------------===//

#include "substrates/jigsaw/Jigsaw.h"

#include "substrates/jigsaw/Http.h"

#include "runtime/Thread.h"
#include "substrates/Stagger.h"

using namespace dlf;
using namespace dlf::jigsaw;

// -- SocketClient ---------------------------------------------------------------

SocketClient::SocketClient(unsigned Index, Label Site,
                           SocketClientFactory &Factory)
    : Monitor("socketClient#" + std::to_string(Index), Site, &Factory),
      Factory(Factory), Index(Index) {
  DLF_NEW_OBJECT(this, &Factory);
}

void SocketClient::serveRequest(unsigned RequestId) {
  DLF_SCOPE("SocketClient::serveRequest");
  MutexGuard Guard(Monitor, DLF_NAMED_SITE("SocketClient::serve/client"));
  Idle = false;
  ++Served;
  Factory.noteRequestServed(Index); // locks csList (inner)
  Idle = true;
  (void)RequestId;
}

void SocketClient::connectionFinished() {
  DLF_SCOPE("SocketClient::connectionFinished");
  Factory.clientConnectionFinished(*this);
}

bool SocketClient::isIdle() const {
  DLF_SCOPE("SocketClient::isIdle");
  MutexGuard Guard(Monitor, DLF_NAMED_SITE("SocketClient::isIdle/client"));
  return Idle;
}

// -- SocketClientFactory --------------------------------------------------------

SocketClientFactory::SocketClientFactory(Label Site)
    : FactoryLock("factory", Site, nullptr),
      CsListLock("csList", Site, nullptr) {
  DLF_NEW_OBJECT(this, nullptr);
}

SocketClient &SocketClientFactory::createClient() {
  DLF_SCOPE("SocketClientFactory::createClient");
  MutexGuard Guard(CsListLock, DLF_NAMED_SITE("Factory::create/csList"));
  unsigned Index = static_cast<unsigned>(Clients.size());
  Clients.push_back(std::make_unique<SocketClient>(
      Index, DLF_NAMED_SITE("Factory::newSocketClient"), *this));
  ++Idle;
  return *Clients.back();
}

void SocketClientFactory::decrIdleCount() {
  DLF_SCOPE("SocketClientFactory::decrIdleCount");
  // Figure 3, line 574: synchronized boolean decrIdleCount().
  MutexGuard Guard(FactoryLock, DLF_NAMED_SITE("Factory:574/factory"));
  --Idle;
}

void SocketClientFactory::updateIdleStats() {
  DLF_SCOPE("SocketClientFactory::updateIdleStats");
  MutexGuard Guard(FactoryLock, DLF_NAMED_SITE("Factory::idleStats/factory"));
  ++Requests;
}

void SocketClientFactory::clientConnectionFinished(SocketClient &Client) {
  DLF_SCOPE("SocketClientFactory::clientConnectionFinished");
  // Figure 3, lines 618-626: synchronized (csList) { decrIdleCount(); }.
  MutexGuard Guard(CsListLock, DLF_NAMED_SITE("Factory:623/csList"));
  decrIdleCount();
  (void)Client;
}

void SocketClientFactory::idleClientRemoved(SocketClient &Client) {
  DLF_SCOPE("SocketClientFactory::idleClientRemoved");
  // Same locks as clientConnectionFinished, different program locations
  // (the paper's "another similar deadlock").
  MutexGuard Guard(CsListLock, DLF_NAMED_SITE("Factory::idleRemove/csList"));
  updateIdleStats();
  (void)Client;
}

void SocketClientFactory::killClients() {
  DLF_SCOPE("SocketClientFactory::killClients");
  // Figure 3, lines 867-872: synchronized void killClients() {
  //   synchronized (csList) { ... } }.
  MutexGuard Factory(FactoryLock, DLF_NAMED_SITE("Factory:867/factory"));
  MutexGuard CsList(CsListLock, DLF_NAMED_SITE("Factory:872/csList"));
  for (auto &Client : Clients) {
    MutexGuard ClientGuard(Client->Monitor,
                           DLF_NAMED_SITE("Factory::kill/client"));
    Client->Idle = true;
  }
  Down = true;
}

void SocketClientFactory::killIdleClient(unsigned Index) {
  DLF_SCOPE("SocketClientFactory::killIdleClient");
  MutexGuard Factory(FactoryLock, DLF_NAMED_SITE("Factory::killIdle/factory"));
  MutexGuard CsList(CsListLock, DLF_NAMED_SITE("Factory::killIdle/csList"));
  if (Index < Clients.size()) {
    MutexGuard ClientGuard(Clients[Index]->Monitor,
                           DLF_NAMED_SITE("Factory::killIdle/client"));
    Clients[Index]->Idle = true;
  }
}

void SocketClientFactory::noteRequestServed(unsigned ClientIndex) {
  DLF_SCOPE("SocketClientFactory::noteRequestServed");
  MutexGuard Guard(CsListLock, DLF_NAMED_SITE("Factory::noteServed/csList"));
  ++Requests;
  (void)ClientIndex;
}

void SocketClientFactory::scanClients() {
  DLF_SCOPE("SocketClientFactory::scanClients");
  MutexGuard Guard(CsListLock, DLF_NAMED_SITE("Factory::scan/csList"));
  for (auto &Client : Clients) {
    MutexGuard ClientGuard(Client->Monitor,
                           DLF_NAMED_SITE("Factory::scan/client"));
    if (Client->Idle)
      ++Requests;
  }
}

int SocketClientFactory::idleCount() const {
  DLF_SCOPE("SocketClientFactory::idleCount");
  MutexGuard Guard(FactoryLock, DLF_NAMED_SITE("Factory::idleCount/factory"));
  return Idle;
}

size_t SocketClientFactory::clientCount() const {
  DLF_SCOPE("SocketClientFactory::clientCount");
  MutexGuard Guard(CsListLock, DLF_NAMED_SITE("Factory::count/csList"));
  return Clients.size();
}

void SocketClientFactory::shutdown() {
  DLF_SCOPE("SocketClientFactory::shutdown");
  // Figure 3, lines 902-904.
  killClients();
}

// -- ResourceStore ----------------------------------------------------------------

ResourceStore::ResourceStore(Label Site, unsigned ResourceCount)
    : StoreLock("resourceStore", Site, nullptr) {
  DLF_NEW_OBJECT(this, nullptr);
  for (unsigned I = 0; I != ResourceCount; ++I)
    Resources.push_back(std::make_unique<Resource>(
        DLF_NAMED_SITE("ResourceStore::newResource"), this));
}

void ResourceStore::loadResource(unsigned Index) {
  DLF_SCOPE("ResourceStore::loadResource");
  MutexGuard Store(StoreLock, DLF_NAMED_SITE("Store::load/store"));
  Resource &R = *Resources[Index % Resources.size()];
  MutexGuard Res(R.Monitor, DLF_NAMED_SITE("Store::load/resource"));
  ++R.Loads;
  ++Loaded;
}

void ResourceStore::saveResource(unsigned Index) {
  DLF_SCOPE("ResourceStore::saveResource");
  Resource &R = *Resources[Index % Resources.size()];
  MutexGuard Res(R.Monitor, DLF_NAMED_SITE("Store::save/resource"));
  MutexGuard Store(StoreLock, DLF_NAMED_SITE("Store::save/store"));
  ++R.Saves;
}

size_t ResourceStore::loadedCount() const {
  DLF_SCOPE("ResourceStore::loadedCount");
  MutexGuard Store(StoreLock, DLF_NAMED_SITE("Store::loadedCount/store"));
  return Loaded;
}

std::string ResourceStore::payloadFor(unsigned Index) const {
  DLF_SCOPE("ResourceStore::payloadFor");
  MutexGuard Store(StoreLock, DLF_NAMED_SITE("Store::payload/store"));
  const Resource &R = *Resources[Index % Resources.size()];
  return "resource#" + std::to_string(Index % Resources.size()) + ":" +
         std::to_string(R.Loads) + "," + std::to_string(R.Saves);
}

void ResourceStore::invalidate(ResourceCache &Cache) {
  DLF_SCOPE("ResourceStore::invalidate");
  MutexGuard Store(StoreLock, DLF_NAMED_SITE("Store::invalidate/store"));
  MutexGuard CacheGuard(Cache.CacheLock,
                        DLF_NAMED_SITE("Store::invalidate/cache"));
  Cache.Entries.clear();
}

// -- ResourceCache ----------------------------------------------------------------

ResourceCache::ResourceCache(Label Site, ResourceStore &Store)
    : CacheLock("responseCache", Site, &Store), Store(Store) {
  DLF_NEW_OBJECT(this, &Store);
}

std::string ResourceCache::lookup(unsigned Index) const {
  DLF_SCOPE("ResourceCache::lookup");
  MutexGuard Guard(CacheLock, DLF_NAMED_SITE("Cache::lookup/cache"));
  auto It = Entries.find(Index);
  return It == Entries.end() ? std::string() : It->second;
}

void ResourceCache::fill(unsigned Index) {
  DLF_SCOPE("ResourceCache::fill");
  MutexGuard Guard(CacheLock, DLF_NAMED_SITE("Cache::fill/cache"));
  Entries[Index] = Store.payloadFor(Index); // locks the store (inner)
}

size_t ResourceCache::size() const {
  DLF_SCOPE("ResourceCache::size");
  MutexGuard Guard(CacheLock, DLF_NAMED_SITE("Cache::size/cache"));
  return Entries.size();
}

// -- HTTP serving ------------------------------------------------------------------

std::string jigsaw::serveHttp(const std::string &Raw, ResourceStore &Store,
                              ResourceCache &Cache) {
  DLF_SCOPE("jigsaw::serveHttp");
  std::optional<HttpRequest> Request = parseRequest(Raw);
  if (!Request) {
    HttpResponse Bad;
    Bad.Status = 400;
    Bad.Reason = "Bad Request";
    return Bad.serialize();
  }
  unsigned Index = routeToResource(Request->Path, Store.resourceCount());
  std::string Payload = Cache.lookup(Index);
  if (Payload.empty()) {
    Store.loadResource(Index); // [store -> resource], the benign order
    Payload = Store.payloadFor(Index);
  }
  return makeResponse(*Request, Payload).serialize();
}

// -- Harness ----------------------------------------------------------------------

namespace {

/// The §5.4 false-positive pattern: the main thread performs
/// [threadLock -> poolLock] during setup, strictly before the worker that
/// performs [poolLock -> threadLock] is started. iGoodlock reports the
/// inversion; no schedule can create it.
class CachedThread {
public:
  CachedThread(unsigned Index, Mutex &PoolLock)
      : ThreadLock("cachedThread#" + std::to_string(Index), DLF_SITE(),
                   nullptr),
        PoolLock(PoolLock) {
    DLF_NEW_OBJECT(this, nullptr);
  }

  /// Called by main before start(): [threadLock -> poolLock].
  void setupRunner() {
    DLF_SCOPE("CachedThread::setupRunner");
    MutexGuard Self(ThreadLock, DLF_NAMED_SITE("CachedThread::setup/thread"));
    MutexGuard Pool(PoolLock, DLF_NAMED_SITE("CachedThread::setup/pool"));
    Configured = true;
  }

  /// The worker body, only ever run after setupRunner returned:
  /// [poolLock -> threadLock].
  void waitForRunner() {
    DLF_SCOPE("CachedThread::waitForRunner");
    MutexGuard Pool(PoolLock, DLF_NAMED_SITE("CachedThread::wait/pool"));
    MutexGuard Self(ThreadLock, DLF_NAMED_SITE("CachedThread::wait/thread"));
    Ready = Configured;
  }

private:
  Mutex ThreadLock;
  Mutex &PoolLock;
  bool Configured = false;
  bool Ready = false;
};

} // namespace

void jigsaw::runJigsawHarness() {
  DLF_SCOPE("jigsaw::runJigsawHarness");
  SocketClientFactory Factory(DLF_SITE());
  ResourceStore Store(DLF_SITE(), /*ResourceCount=*/2);
  ResourceCache Cache(DLF_SITE(), Store);
  Mutex Indexer("indexer", DLF_SITE(), nullptr);
  Mutex Logbook("logbook", DLF_SITE(), nullptr);
  Mutex Stats("stats", DLF_SITE(), nullptr);
  Mutex CachedPool("cachedThreadPool", DLF_SITE(), nullptr);

  constexpr unsigned ClientCount = 3;
  constexpr unsigned RequestsPerClient = 2;
  std::vector<SocketClient *> Clients;
  for (unsigned I = 0; I != ClientCount; ++I)
    Clients.push_back(&Factory.createClient());

  // §5.4 false positives: setup inversions happen strictly before the
  // cached workers start, so the cycles iGoodlock reports from them are
  // infeasible.
  CachedThread Cached0(0, CachedPool);
  CachedThread Cached1(1, CachedPool);
  Cached0.setupRunner();
  Cached1.setupRunner();

  std::vector<Thread> Workers;

  // Outside the Active scheduler the workers start together and a yield
  // is nanoseconds, so on a loaded host two inverted windows can overlap
  // and the plain program deadlocks. Each worker's entry stagger also
  // waits this much real time per point, which keeps the windows in the
  // order the points give them; the Active schedule is unchanged (see
  // staggerWall).
  constexpr unsigned EntryUsPerPoint = 1000;

  // Client worker threads: parse and serve real HTTP requests
  // ([cache], [store -> resource]), account them ([client -> csList]),
  // then finish the connection ([csList -> factory], Figure 3's
  // deadlocking path).
  for (unsigned I = 0; I != ClientCount; ++I) {
    SocketClient *Client = Clients[I];
    Workers.emplace_back(Thread(
        [&Store, &Cache, Client, I] {
          DLF_SCOPE("jigsaw::clientWorker");
          staggerWall(2 + 3 * I, (2 + 3 * I) * EntryUsPerPoint);
          for (unsigned R = 0; R != RequestsPerClient; ++R) {
            std::string Raw = "GET /res/" + std::to_string(I + R) +
                              " HTTP/1.0\r\nhost: jigsaw\r\n\r\n";
            std::string Response = serveHttp(Raw, Store, Cache);
            if (Response.find("200 OK") == std::string::npos)
              std::abort(); // the mini server must serve its own requests
            Client->serveRequest(R);
            stagger(3);
          }
          Client->connectionFinished();
        },
        "jigsaw.client" + std::to_string(I), DLF_SITE(), &Factory));
  }

  // Cache warmer: [cache -> store], inverted by the admin's invalidation.
  Workers.emplace_back(Thread(
      [&Cache] {
        DLF_SCOPE("jigsaw::warmerWorker");
        staggerWall(4, 4 * EntryUsPerPoint);
        for (unsigned R = 0; R != 3; ++R) {
          Cache.fill(R);
          stagger(2);
        }
      },
      "jigsaw.warmer", DLF_SITE(), &Factory));
  Workers.emplace_back(Thread(
      [&Store, &Cache] {
        DLF_SCOPE("jigsaw::adminWorker");
        staggerWall(10, 10 * EntryUsPerPoint);
        (void)Cache.size(); // gate: cache monitor, alone
        Store.invalidate(Cache);
      },
      "jigsaw.admin", DLF_SITE(), &Factory));

  // Reaper: inverts against the client workers and the finish paths.
  Workers.emplace_back(Thread(
      [&Factory] {
        DLF_SCOPE("jigsaw::reaperWorker");
        // Same points as the last client; in wall time, after it.
        staggerWall(8, 11 * EntryUsPerPoint);
        Factory.scanClients();
        stagger(4);
        Factory.killIdleClient(1);
      },
      "jigsaw.reaper", DLF_SITE(), &Factory));

  // Resource saver: [resource -> store], inverting the loads.
  Workers.emplace_back(Thread(
      [&Store] {
        DLF_SCOPE("jigsaw::saverWorker");
        staggerWall(6, 6 * EntryUsPerPoint);
        for (unsigned R = 0; R != 3; ++R) {
          Store.saveResource(R);
          stagger(3);
        }
      },
      "jigsaw.saver", DLF_SITE(), &Factory));

  // Three-lock chain: indexer -> logbook, logbook -> stats,
  // stats -> indexer — a length-3 potential cycle with no length-2
  // sub-cycles (exercises iGoodlock's iterative deepening).
  Workers.emplace_back(Thread(
      [&Indexer, &Logbook] {
        DLF_SCOPE("jigsaw::indexWriter");
        staggerWall(5, 5 * EntryUsPerPoint);
        MutexGuard A(Indexer, DLF_NAMED_SITE("jigsaw::reindex/indexer"));
        MutexGuard B(Logbook, DLF_NAMED_SITE("jigsaw::reindex/logbook"));
      },
      "jigsaw.indexWriter", DLF_SITE(), &Factory));
  Workers.emplace_back(Thread(
      [&Logbook, &Stats] {
        DLF_SCOPE("jigsaw::logRotator");
        staggerWall(7, 7 * EntryUsPerPoint);
        MutexGuard A(Logbook, DLF_NAMED_SITE("jigsaw::rotate/logbook"));
        MutexGuard B(Stats, DLF_NAMED_SITE("jigsaw::rotate/stats"));
      },
      "jigsaw.logRotator", DLF_SITE(), &Factory));
  Workers.emplace_back(Thread(
      [&Stats, &Indexer] {
        DLF_SCOPE("jigsaw::statsCollector");
        staggerWall(9, 9 * EntryUsPerPoint);
        MutexGuard A(Stats, DLF_NAMED_SITE("jigsaw::collect/stats"));
        MutexGuard B(Indexer, DLF_NAMED_SITE("jigsaw::collect/indexer"));
      },
      "jigsaw.statsCollector", DLF_SITE(), &Factory));

  // The cached workers: run the [poolLock -> threadLock] halves of the
  // §5.4 false-positive cycles, strictly after their setup inversions.
  Workers.emplace_back(Thread(
      [&Cached0] {
        DLF_SCOPE("jigsaw::cachedWorker0");
        stagger(4);
        Cached0.waitForRunner();
      },
      "jigsaw.cached0", DLF_SITE(), &Factory));
  Workers.emplace_back(Thread(
      [&Cached1] {
        DLF_SCOPE("jigsaw::cachedWorker1");
        stagger(9);
        Cached1.waitForRunner();
      },
      "jigsaw.cached1", DLF_SITE(), &Factory));

  for (Thread &Worker : Workers)
    Worker.join();
  Workers.clear();

  // Server shutdown: Figure 3's httpd.cleanup() -> factory.shutdown(),
  // running against one last straggler connection.
  Thread Straggler(
      [&] {
        DLF_SCOPE("jigsaw::stragglerWorker");
        Clients[0]->serveRequest(99);
        Clients[0]->connectionFinished();
      },
      "jigsaw.straggler", DLF_SITE(), &Factory);
  Thread Shutdown(
      [&Factory] {
        DLF_SCOPE("jigsaw::shutdownWorker");
        staggerWall(3, 3 * EntryUsPerPoint);
        (void)Factory.idleCount(); // factory monitor alone (gate)
        Factory.shutdown();
      },
      "jigsaw.shutdown", DLF_SITE(), &Factory);
  Straggler.join();
  Shutdown.join();
}
