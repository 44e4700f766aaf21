//===- substrates/logging/Logging.cpp - java.util.logging analogue ---------===//

#include "substrates/logging/Logging.h"

#include "runtime/Thread.h"
#include "substrates/Stagger.h"

using namespace dlf;
using namespace dlf::logging;

// -- Logger -------------------------------------------------------------------

Logger::Logger(const std::string &Name, Label Site, LogManager &Manager)
    : Monitor("logger:" + Name, Site, &Manager), Manager(Manager),
      TheName(Name) {
  DLF_NEW_OBJECT(this, &Manager);
}

void Logger::log(Handler &Sink, const std::string &Message) {
  DLF_SCOPE("Logger::log");
  MutexGuard Guard(Monitor, DLF_NAMED_SITE("Logger::log/logger"));
  Buffer.push_back(Message);
  Sink.publish(TheName + ": " + Message); // locks the handler (inner)
}

void Logger::setLevel(int NewLevel) {
  DLF_SCOPE("Logger::setLevel");
  MutexGuard Guard(Monitor, DLF_NAMED_SITE("Logger::setLevel/logger"));
  MutexGuard Config(Manager.Monitor, DLF_NAMED_SITE("Logger::setLevel/manager"));
  Level = NewLevel + Manager.Property;
}

bool Logger::isEnabled() const {
  DLF_SCOPE("Logger::isEnabled");
  MutexGuard Guard(Monitor, DLF_NAMED_SITE("Logger::isEnabled/logger"));
  return Level >= 0;
}

std::string Logger::name() const {
  DLF_SCOPE("Logger::name");
  MutexGuard Guard(Monitor, DLF_NAMED_SITE("Logger::name/logger"));
  return TheName;
}

// -- Handler ------------------------------------------------------------------

Handler::Handler(const std::string &Name, Label Site, LogManager &Manager)
    : Monitor("handler:" + Name, Site, &Manager), Manager(Manager),
      TheName(Name) {
  DLF_NEW_OBJECT(this, &Manager);
}

void Handler::publish(const std::string &Record) {
  DLF_SCOPE("Handler::publish");
  MutexGuard Guard(Monitor, DLF_NAMED_SITE("Handler::publish/handler"));
  Records.push_back(Record);
}

void Handler::setFormatterFor(Logger &Target, const std::string &Format) {
  DLF_SCOPE("Handler::setFormatterFor");
  MutexGuard Guard(Monitor, DLF_NAMED_SITE("Handler::setFormatterFor/handler"));
  MutexGuard Inner(Target.Monitor,
                   DLF_NAMED_SITE("Handler::setFormatterFor/logger"));
  Records.push_back("formatter(" + Target.TheName + ")=" + Format);
}

void Handler::flush() {
  DLF_SCOPE("Handler::flush");
  MutexGuard Guard(Monitor, DLF_NAMED_SITE("Handler::flush/handler"));
  size_t Count = Records.size();
  Records.clear();
  Manager.noteFlush(Count); // locks the manager (inner)
}

size_t Handler::recordCount() const {
  DLF_SCOPE("Handler::recordCount");
  MutexGuard Guard(Monitor, DLF_NAMED_SITE("Handler::recordCount/handler"));
  return Records.size();
}

// -- LogManager ---------------------------------------------------------------

LogManager::LogManager(Label Site) : Monitor("logManager", Site, nullptr) {
  DLF_NEW_OBJECT(this, nullptr);
}

Logger &LogManager::getLogger(const std::string &Name) {
  DLF_SCOPE("LogManager::getLogger");
  MutexGuard Guard(Monitor, DLF_NAMED_SITE("LogManager::getLogger/manager"));
  // Factory pattern: every logger allocates at this one site, which is what
  // defeats purely allocation-site-based abstractions (§2.4).
  Loggers.push_back(
      std::make_unique<Logger>(Name, DLF_NAMED_SITE("LogManager::newLogger"),
                               *this));
  return *Loggers.back();
}

Handler &LogManager::getHandler(const std::string &Name) {
  DLF_SCOPE("LogManager::getHandler");
  MutexGuard Guard(Monitor, DLF_NAMED_SITE("LogManager::getHandler/manager"));
  Handlers.push_back(
      std::make_unique<Handler>(Name, DLF_NAMED_SITE("LogManager::newHandler"),
                                *this));
  return *Handlers.back();
}

void LogManager::reset(Logger &Target) {
  DLF_SCOPE("LogManager::reset");
  MutexGuard Guard(Monitor, DLF_NAMED_SITE("LogManager::reset/manager"));
  MutexGuard Inner(Target.Monitor, DLF_NAMED_SITE("LogManager::reset/logger"));
  Target.Level = 0;
  Target.Buffer.clear();
}

void LogManager::readConfiguration(Handler &Sink) {
  DLF_SCOPE("LogManager::readConfiguration");
  MutexGuard Guard(Monitor,
                   DLF_NAMED_SITE("LogManager::readConfiguration/manager"));
  MutexGuard Inner(Sink.Monitor,
                   DLF_NAMED_SITE("LogManager::readConfiguration/handler"));
  Sink.Records.push_back("configured");
}

int LogManager::getProperty() const {
  DLF_SCOPE("LogManager::getProperty");
  MutexGuard Guard(Monitor, DLF_NAMED_SITE("LogManager::getProperty/manager"));
  return Property;
}

void LogManager::noteFlush(size_t Count) {
  DLF_SCOPE("LogManager::noteFlush");
  MutexGuard Guard(Monitor, DLF_NAMED_SITE("LogManager::noteFlush/manager"));
  FlushedRecords += Count;
}

// -- Harness ------------------------------------------------------------------

namespace {

/// Spawns every logging worker through one call site, so all worker thread
/// objects share a k-object abstraction (like threads minted by a thread
/// pool) while execution indexing still tells them apart — the mechanism
/// behind Figure 2's variant-1 vs variant-2 gap on this benchmark.
Thread spawnLoggingWorker(LogManager &Manager, std::function<void()> Body,
                          const std::string &Name) {
  DLF_SCOPE("logging::spawnWorker");
  return Thread(std::move(Body), Name,
                DLF_NAMED_SITE("logging::spawnWorker/thread"), &Manager);
}

/// Real-time separation of each cycle's second participant from its
/// first, outside the Active scheduler (see staggerWall): uninstrumented
/// runs start the workers at OS latency, and under load two scheduling
/// points of yields are not enough to keep them from overlapping for real.
constexpr unsigned HazardPauseUs = 5000;

} // namespace

void logging::runLoggingHarness() {
  DLF_SCOPE("logging::runLoggingHarness");
  LogManager Manager(DLF_SITE());
  Logger &L1 = Manager.getLogger("app");
  Logger &L2 = Manager.getLogger("net");
  Handler &H1 = Manager.getHandler("console");
  Handler &H2 = Manager.getHandler("file");
  // Decoy objects: same factory sites as the cycle participants, no
  // deadlocking partners of their own. Under the k-object abstraction they
  // are indistinguishable from L1/H2, so variant 1 pauses their threads by
  // mistake.
  Logger &L3 = Manager.getLogger("decoy");
  Logger &L4 = Manager.getLogger("decoy2"); // separate target for the decoy
                                            // reset, so the two decoys do
                                            // not form a real cycle of
                                            // their own
  Handler &H3 = Manager.getHandler("decoy");

  // Cycle A: setLevel (logger->manager) vs reset (manager->logger), with the
  // §4 gate: the reset thread first touches the logger monitor alone, so a
  // fuzzer that pauses the setLevel thread too early wedges the gate.
  Thread SetLevel = spawnLoggingWorker(
      Manager,
      [&] {
        DLF_SCOPE("logging::setLevelWorker");
        L1.setLevel(3);
      },
      "log.setLevel");
  Thread Reset = spawnLoggingWorker(
      Manager,
      [&] {
        DLF_SCOPE("logging::resetWorker");
        staggerWall(2, HazardPauseUs);
        (void)L1.isEnabled(); // gate: logger monitor, alone
        Manager.reset(L1);
      },
      "log.reset");

  // Cycle B: log (logger->handler) vs setFormatterFor (handler->logger),
  // same gate structure on the logger monitor.
  Thread Log = spawnLoggingWorker(
      Manager,
      [&] {
        DLF_SCOPE("logging::logWorker");
        L2.log(H1, "payload");
      },
      "log.log");
  Thread Formatter = spawnLoggingWorker(
      Manager,
      [&] {
        DLF_SCOPE("logging::formatterWorker");
        staggerWall(2, HazardPauseUs);
        (void)L2.name(); // gate: logger monitor, alone
        H1.setFormatterFor(L2, "%m");
      },
      "log.formatter");

  // Cycle C: readConfiguration (manager->handler) vs flush
  // (handler->manager), gate on the manager monitor.
  Thread ReadConfig = spawnLoggingWorker(
      Manager,
      [&] {
        DLF_SCOPE("logging::readConfigWorker");
        Manager.readConfiguration(H2);
      },
      "log.readConfig");
  Thread Flush = spawnLoggingWorker(
      Manager,
      [&] {
        DLF_SCOPE("logging::flushWorker");
        staggerWall(2, HazardPauseUs);
        (void)Manager.getProperty(); // gate: manager monitor, alone
        H2.flush();
      },
      "log.flush");

  // Decoy workers: run the *same code paths* on the decoy objects. They
  // contribute no cycles (no inverted partner touches L3/H3), but under
  // coarse abstractions they pause exactly like the real participants —
  // while holding the shared manager/logger monitors — so variant 1
  // thrashes and sometimes ejects a real participant.
  Thread DecoySetLevel = spawnLoggingWorker(
      Manager,
      [&] {
        DLF_SCOPE("logging::setLevelWorker");
        stagger(1);
        L3.setLevel(5);
      },
      "log.decoySetLevel");
  Thread DecoyReset = spawnLoggingWorker(
      Manager,
      [&] {
        DLF_SCOPE("logging::resetWorker");
        stagger(3);
        Manager.reset(L4);
      },
      "log.decoyReset");
  Thread DecoyFlush = spawnLoggingWorker(
      Manager,
      [&] {
        DLF_SCOPE("logging::flushWorker");
        stagger(4);
        H3.flush();
      },
      "log.decoyFlush");

  // Benign single-lock traffic (runtime filler; produces no cycles).
  Thread Chatter = spawnLoggingWorker(
      Manager,
      [&] {
        DLF_SCOPE("logging::chatterWorker");
        for (int I = 0; I != 6; ++I) {
          (void)H3.recordCount();
          stagger(2);
        }
      },
      "log.chatter");

  SetLevel.join();
  Reset.join();
  Log.join();
  Formatter.join();
  ReadConfig.join();
  Flush.join();
  DecoySetLevel.join();
  DecoyReset.join();
  DecoyFlush.join();
  Chatter.join();
}
