//===- AppHarness.h - Instrumentation harness for the mini-apps -*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instrumentation harness of the DaCapo-substitute applications
/// (paper §5.2). Each application declares its target allocation sites
/// through this harness, which realizes them in one of three
/// configurations:
///
///   * Original     — every site always instantiates its fixed default
///                    variant (the unmodified program),
///   * FullAdap     — every site goes through an adaptive allocation
///                    context (the full CollectionSwitch),
///   * InstanceAdap — every site always instantiates the adaptive
///                    variant (instance-level adaptivity only).
///
/// All applications use int64_t elements, matching the data type of the
/// performance model's factorial plan (paper Table 3).
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_APPS_APPHARNESS_H
#define CSWITCH_APPS_APPHARNESS_H

#include "core/Switch.h"

#include <memory>
#include <string>
#include <vector>

namespace cswitch {

/// Which instrumentation level an application run uses (paper Table 5).
enum class AppConfig : unsigned {
  Original,     ///< Fixed default variants.
  FullAdap,     ///< Adaptive allocation contexts.
  InstanceAdap, ///< Always-adaptive collection variants.
};

/// Returns "original", "fulladap" or "instanceadap".
const char *appConfigName(AppConfig Config);

/// Element type all mini-applications use.
using AppElem = int64_t;

/// Declares allocation sites and realizes them per configuration.
class AppHarness {
public:
  AppHarness(AppConfig Config, SelectionRule Rule,
             std::shared_ptr<const PerformanceModel> Model,
             ContextOptions CtxOptions = {});

  ~AppHarness();

  AppHarness(const AppHarness &) = delete;
  AppHarness &operator=(const AppHarness &) = delete;

  /// A declared allocation site of one facade kind (List<AppElem>,
  /// Set<AppElem> or Map<AppElem, AppElem>).
  template <typename Facade> class Site {
    using Traits = ContextTraits<Facade>;

  public:
    /// Instantiates a collection per the harness configuration.
    Facade create() {
      if (Ctx)
        return Traits::create(*Ctx);
      return Facade(Traits::makeImpl(Fixed));
    }

  private:
    friend class AppHarness;
    typename Traits::Variant Fixed{};
    typename Traits::Context *Ctx = nullptr;
  };

  using ListSite = Site<List<AppElem>>;
  using SetSite = Site<Set<AppElem>>;
  using MapSite = Site<Map<AppElem, AppElem>>;

  /// Declares a list site whose unmodified program uses \p Default.
  ListSite declareListSite(const std::string &Name, ListVariant Default);

  /// Declares a set site whose unmodified program uses \p Default.
  SetSite declareSetSite(const std::string &Name, SetVariant Default);

  /// Declares a map site whose unmodified program uses \p Default.
  MapSite declareMapSite(const std::string &Name, MapVariant Default);

  /// Evaluates every FullAdap context once (the deterministic stand-in
  /// for the engine's periodic task); returns performed transitions.
  size_t evaluateAll();

  /// The FullAdap contexts, for post-run inspection (empty in the other
  /// configurations).
  std::vector<const AllocationContextBase *> contexts() const;

  /// Number of declared sites.
  size_t siteCount() const { return Sites; }

  AppConfig config() const { return Config; }

private:
  /// Realizes one site per the configuration: the fixed \p Default
  /// (Original), the kind's adaptive variant (InstanceAdap) or a
  /// registered allocation context (FullAdap).
  template <typename Facade>
  Site<Facade> declareSite(const std::string &Name,
                           typename ContextTraits<Facade>::Variant Default);

  AppConfig Config;
  SelectionRule Rule;
  std::shared_ptr<const PerformanceModel> Model;
  ContextOptions CtxOptions;
  size_t Sites = 0;
  std::vector<std::unique_ptr<AllocationContextBase>> Owned;
};

} // namespace cswitch

#endif // CSWITCH_APPS_APPHARNESS_H
