//===- SwitchEngine.cpp - Context registry and evaluation thread ---------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "core/SwitchEngine.h"

#include "obs/Profiling.h"
#include "support/EventLog.h"
#include "support/Topology.h"

using namespace cswitch;

SwitchEngine &SwitchEngine::global() {
  static SwitchEngine Instance;
  return Instance;
}

SwitchEngine::SwitchEngine() = default;

SwitchEngine::~SwitchEngine() { stop(); }

void SwitchEngine::registerContext(AllocationContextBase *Context) {
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  Contexts.push_back(Context);
}

void SwitchEngine::unregisterContext(AllocationContextBase *Context) {
  // Fold the dying context's lifetime aggregate into the store ledger
  // while the context is still alive; the next persist writes it out.
  if (std::shared_ptr<SelectionStore> St = store()) {
    uint64_t Instances = 0;
    WorkloadProfile Profile = Context->aggregateProfile(Instances);
    if (Instances > 0)
      St->recordFinished(Context->name(), Context->rule().Name,
                         Context->abstraction(),
                         Context->currentVariantIndex(), Profile, Instances);
  }
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  std::erase(Contexts, Context);
}

std::vector<AllocationContextBase *> SwitchEngine::snapshotContexts() const {
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  return Contexts;
}

size_t SwitchEngine::evaluateAll() {
  size_t Transitions = 0;
  for (AllocationContextBase *Context : snapshotContexts())
    if (Context->evaluate())
      ++Transitions;
  return Transitions;
}

void SwitchEngine::start(std::chrono::milliseconds MonitoringRate) {
  std::lock_guard<std::mutex> Lock(ThreadMutex);
  if (Running)
    return;
  StopRequested = false;
  Running = true;
  Worker = std::thread([this, MonitoringRate] { threadMain(MonitoringRate); });
}

void SwitchEngine::stop() {
  {
    std::lock_guard<std::mutex> Lock(ThreadMutex);
    if (!Running)
      return;
    StopRequested = true;
  }
  StopCondition.notify_all();
  Worker.join();
  {
    std::lock_guard<std::mutex> Lock(ThreadMutex);
    Running = false;
  }
  // Final merge so learned selections survive the shutdown even when
  // the periodic interval never fired, then a final report so the
  // lifetime latency distributions reach the sink before the process
  // goes quiet.
  persistStore();
  flushReport();
}

bool SwitchEngine::isRunning() const {
  std::lock_guard<std::mutex> Lock(ThreadMutex);
  return Running;
}

void SwitchEngine::threadMain(std::chrono::milliseconds Rate) {
  std::unique_lock<std::mutex> Lock(ThreadMutex);
  while (!StopRequested) {
    if (StopCondition.wait_for(Lock, Rate,
                               [this] { return StopRequested; }))
      break;
    Lock.unlock();
    evaluateAll();
    maybeReport();
    maybePersistStore();
    Lock.lock();
  }
}

void SwitchEngine::setReporter(ReporterOptions Options) {
  std::lock_guard<std::mutex> Lock(ReporterMutex);
  Reporter = std::move(Options);
  NextReport = std::chrono::steady_clock::now() + Reporter.Interval;
}

void SwitchEngine::clearReporter() {
  std::lock_guard<std::mutex> Lock(ReporterMutex);
  Reporter = ReporterOptions{};
}

void SwitchEngine::maybeReport() {
  std::function<void(const TelemetrySnapshot &)> Sink;
  {
    std::lock_guard<std::mutex> Lock(ReporterMutex);
    if (!Reporter.Sink)
      return;
    auto Now = std::chrono::steady_clock::now();
    if (Now < NextReport)
      return;
    NextReport = Now + Reporter.Interval;
    Sink = Reporter.Sink;
  }
  // The snapshot and the sink run outside every engine lock: a slow
  // sink delays at most the background thread's own next sweep.
  Sink(telemetry());
  ReportsEmitted.fetch_add(1, std::memory_order_relaxed);
}

void SwitchEngine::flushReport() {
  std::function<void(const TelemetrySnapshot &)> Sink;
  {
    std::lock_guard<std::mutex> Lock(ReporterMutex);
    if (!Reporter.Sink)
      return;
    // Restart the periodic clock so a flush does not double up with an
    // imminent scheduled report.
    NextReport = std::chrono::steady_clock::now() + Reporter.Interval;
    Sink = Reporter.Sink;
  }
  Sink(telemetry());
  ReportsEmitted.fetch_add(1, std::memory_order_relaxed);
}

bool SwitchEngine::loadStore(const std::string &Path, StoreOptions Options) {
  auto NewStore = std::make_shared<SelectionStore>(Options);
  bool Ok = NewStore->load(Path);
  std::lock_guard<std::mutex> Lock(StoreMutex);
  Store = std::move(NewStore);
  StorePath = Path;
  NextPersist = std::chrono::steady_clock::now() +
                Store->options().PersistInterval;
  return Ok;
}

std::shared_ptr<SelectionStore> SwitchEngine::store() const {
  std::lock_guard<std::mutex> Lock(StoreMutex);
  return Store;
}

bool SwitchEngine::persistStore() {
  std::shared_ptr<SelectionStore> St;
  std::string Path;
  {
    std::lock_guard<std::mutex> Lock(StoreMutex);
    St = Store;
    Path = StorePath;
  }
  if (!St)
    return false;
  // Persists are rare (interval-paced or shutdown), so every one is
  // timed — merge gathering included, since that is the cost the
  // background sweep actually pays.
  const bool Profiled = obs::ProfilingRegistry::enabled();
  const uint64_t Start = Profiled ? obs::nowNanos() : 0;
  std::vector<SelectionStore::LiveSite> Live;
  for (AllocationContextBase *Context : snapshotContexts()) {
    uint64_t Instances = 0;
    WorkloadProfile Profile = Context->aggregateProfile(Instances);
    if (Instances == 0)
      continue;
    Live.push_back({Context->name(), Context->rule().Name,
                    Context->abstraction(), Context->currentVariantIndex(),
                    std::move(Profile), Instances});
  }
  bool Ok = St->persist(Path, Live);
  if (Profiled)
    obs::ProfilingRegistry::global().persistHistogram().record(
        obs::nowNanos() - Start);
  return Ok;
}

std::string SwitchEngine::exportStore() const {
  std::shared_ptr<SelectionStore> St;
  {
    std::lock_guard<std::mutex> Lock(StoreMutex);
    St = Store;
  }
  if (!St)
    return {};
  std::vector<SelectionStore::LiveSite> Live;
  for (AllocationContextBase *Context : snapshotContexts()) {
    uint64_t Instances = 0;
    WorkloadProfile Profile = Context->aggregateProfile(Instances);
    if (Instances == 0)
      continue;
    Live.push_back({Context->name(), Context->rule().Name,
                    Context->abstraction(), Context->currentVariantIndex(),
                    std::move(Profile), Instances});
  }
  return encodeStore(St->exportSites(Live));
}

bool SwitchEngine::mergeRemoteStore(std::string_view Bytes, std::string *Error,
                                    uint64_t *SitesMerged) {
  std::shared_ptr<SelectionStore> St;
  std::string Path;
  {
    std::lock_guard<std::mutex> Lock(StoreMutex);
    St = Store;
    Path = StorePath;
  }
  if (!St) {
    if (Error)
      *Error = "no selection store installed";
    return false;
  }
  std::vector<StoreSite> Remote;
  if (!decodeStore(Bytes, Remote, Error))
    return false;
  return St->mergeRemote(Path, Remote, Error, SitesMerged);
}

void SwitchEngine::closeStore() {
  persistStore();
  // The store counters and the persist histogram just took their final
  // values; push them to the reporter sink before the store (and its
  // counters) are uninstalled.
  flushReport();
  std::lock_guard<std::mutex> Lock(StoreMutex);
  Store.reset();
  StorePath.clear();
}

void SwitchEngine::maybePersistStore() {
  {
    std::lock_guard<std::mutex> Lock(StoreMutex);
    if (!Store || Store->options().PersistInterval.count() <= 0)
      return;
    auto Now = std::chrono::steady_clock::now();
    if (Now < NextPersist)
      return;
    NextPersist = Now + Store->options().PersistInterval;
  }
  persistStore();
}

size_t SwitchEngine::contextCount() const {
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  return Contexts.size();
}

uint64_t SwitchEngine::totalSwitches() const {
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  uint64_t Total = 0;
  for (const AllocationContextBase *Context : Contexts)
    Total += Context->switchCount();
  return Total;
}

EngineStats SwitchEngine::stats() const {
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  EngineStats Stats;
  for (const AllocationContextBase *Context : Contexts)
    Stats += Context->stats();
  return Stats;
}

TelemetrySnapshot SwitchEngine::telemetry() const {
  TelemetrySnapshot Snapshot;
  {
    std::lock_guard<std::mutex> Lock(RegistryMutex);
    for (const AllocationContextBase *Context : Contexts) {
      ContextSnapshot C;
      C.Name = Context->name();
      C.Abstraction = abstractionKindName(Context->abstraction());
      C.Variant = Context->currentVariant().name();
      C.Stats = Context->stats();
      C.FootprintBytes = Context->memoryFootprint();
      C.Latency = Context->siteProfile()->latencies();
      C.ContendedThreads = Context->contendedThreads();
      Snapshot.Engine += C.Stats;
      Snapshot.Contexts.push_back(std::move(C));
    }
  }
  Snapshot.Latency = obs::ProfilingRegistry::global().engineLatencies();
  const Topology &Topo = Topology::system();
  Snapshot.Topology.Nodes = Topo.nodeCount();
  Snapshot.Topology.Cpus = Topo.cpuCount();
  EventLog &Log = EventLog::global();
  Snapshot.Events.Recorded = Log.totalRecorded();
  Snapshot.Events.Dropped = Log.droppedCount();
  Snapshot.Recorder = RecorderRegistry::global().stats();
  Snapshot.Fleet = FleetRegistry::global().stats();
  Snapshot.Model = ModelRegistry::global().stats();
  if (std::shared_ptr<SelectionStore> St = store()) {
    Snapshot.Store = St->stats();
    std::lock_guard<std::mutex> Lock(StoreMutex);
    Snapshot.Store.Path = StorePath;
  }
  return Snapshot;
}
