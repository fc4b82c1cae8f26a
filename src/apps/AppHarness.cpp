//===- AppHarness.cpp - Instrumentation harness for the mini-apps --------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "apps/AppHarness.h"

using namespace cswitch;

const char *cswitch::appConfigName(AppConfig Config) {
  switch (Config) {
  case AppConfig::Original:
    return "original";
  case AppConfig::FullAdap:
    return "fulladap";
  case AppConfig::InstanceAdap:
    return "instanceadap";
  }
  return "unknown";
}

AppHarness::AppHarness(AppConfig Config, SelectionRule Rule,
                       std::shared_ptr<const PerformanceModel> Model,
                       ContextOptions CtxOptions)
    : Config(Config), Rule(std::move(Rule)), Model(std::move(Model)),
      CtxOptions(CtxOptions) {}

AppHarness::~AppHarness() {
  // Contexts are registered with the global engine (so engine-level
  // telemetry observes app runs); detach them before they die.
  for (auto &Ctx : Owned)
    SwitchEngine::global().unregisterContext(Ctx.get());
}

template <typename Facade>
AppHarness::Site<Facade>
AppHarness::declareSite(const std::string &Name,
                        typename ContextTraits<Facade>::Variant Default) {
  using Traits = ContextTraits<Facade>;
  ++Sites;
  Site<Facade> Out;
  switch (Config) {
  case AppConfig::Original:
    Out.Fixed = Default;
    break;
  case AppConfig::InstanceAdap:
    Out.Fixed = Traits::Adaptive;
    break;
  case AppConfig::FullAdap: {
    auto Ctx = std::make_unique<typename Traits::Context>(Name, Default, Model,
                                                          Rule, CtxOptions);
    Out.Ctx = Ctx.get();
    Owned.push_back(std::move(Ctx));
    SwitchEngine::global().registerContext(Out.Ctx);
    break;
  }
  }
  return Out;
}

AppHarness::ListSite AppHarness::declareListSite(const std::string &Name,
                                                 ListVariant Default) {
  return declareSite<List<AppElem>>(Name, Default);
}

AppHarness::SetSite AppHarness::declareSetSite(const std::string &Name,
                                               SetVariant Default) {
  return declareSite<Set<AppElem>>(Name, Default);
}

AppHarness::MapSite AppHarness::declareMapSite(const std::string &Name,
                                               MapVariant Default) {
  return declareSite<Map<AppElem, AppElem>>(Name, Default);
}

size_t AppHarness::evaluateAll() {
  size_t Transitions = 0;
  for (auto &Ctx : Owned)
    if (Ctx->evaluate())
      ++Transitions;
  return Transitions;
}

std::vector<const AllocationContextBase *> AppHarness::contexts() const {
  std::vector<const AllocationContextBase *> Out;
  Out.reserve(Owned.size());
  for (const auto &Ctx : Owned)
    Out.push_back(Ctx.get());
  return Out;
}
