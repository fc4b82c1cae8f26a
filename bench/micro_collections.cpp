//===- micro_collections.cpp - google-benchmark microbenchmarks -----------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// Spot-check microbenchmarks over the variant library using
// google-benchmark: populate and contains for every variant at small and
// large sizes. These are the raw measurements behind the performance
// model's shape. On an x86-64 host with GCC 12 (runs vary by up to 30%
// on a shared machine) they show:
//
//   bm_set_contains: Chained < Compact < Open at n=256, all within 3 ns,
//                    with ArraySet about 8x slower; at n=16 the
//                    sequential sets are all within 3 ns of each other;
//   bm_list_contains: HashArrayList flat, ArrayList linear; the
//                    _miss rows (three probes in four miss) keep that
//                    shape, with ArrayList 1.3-1.8x its all-hit time.
//
// Both sizes put the open-addressing tables at load exactly 1/2, and the
// loops repeat hits on a cache-resident table. There the group-probed
// tables pay for the control-byte load that precedes the key compare,
// and back-to-back inserts are slower than linear probing's. The same
// holds for the hash bag behind HashArrayList: its contains rows take
// 1.2-1.35x the time of the chained bag it replaced. Their gains, on
// misses, near the 7/8 load limit and on many short-lived instances,
// show in the repository benchmark (bench/suite), not here.
//
// The presize rows populate N keys into an instance that grows from
// empty and into one reserved for N first, as allocation contexts
// reserve every new instance at the site's capacity hint (DESIGN.md
// §4.2). At N = 16, 256 and 1000, reserved populate takes 0.35-0.4x
// the growing time for CompactHashSet and 0.5-0.7x for OpenHashSet (no
// rehash re-places keys), 0.55-0.6x for HashArrayList, 0.6-0.85x for
// ArrayList, and the same time for ChainedHashSet, whose per-key node
// allocation outweighs the bucket regrowth. HashArrayList populates in
// 0.3-0.7x the chained bag's time growing and 0.25-0.55x reserved.
//
// bm_model_load reads data/cswitch_model.txt the way every process that
// runs with the measured model does at startup: loadFromFile, then
// augmentConcurrentCoverage. Each iteration opens, reads, parses and
// validates the file again; nothing is kept between iterations.
//
//===----------------------------------------------------------------------===//

#include "collections/Factory.h"
#include "model/DefaultModel.h"
#include "support/Random.h"

#include <benchmark/benchmark.h>

#include <string>

using namespace cswitch;

namespace {

std::vector<int64_t> keysFor(size_t N) {
  SplitMix64 Rng(5);
  return distinctIntegers(Rng, N, static_cast<int64_t>(N) * 8 + 64);
}

/// Row label: the variant, and for the presize rows whether the
/// instance grew from empty or was reserved for all N keys first.
std::string populateLabel(const char *Variant, int64_t Reserve) {
  if (Reserve < 0)
    return Variant;
  return std::string(Variant) + (Reserve ? " reserved" : " growing");
}

// Populate rows take (variant, N, reserve): reserve is -1 for the plain
// rows, 0 or 1 for the growing-vs-reserved presize rows.
void bmListPopulate(benchmark::State &State) {
  auto Variant = static_cast<ListVariant>(State.range(0));
  size_t N = static_cast<size_t>(State.range(1));
  std::vector<int64_t> Keys = keysFor(N);
  for (auto _ : State) {
    auto L = makeListImpl<int64_t>(Variant);
    if (State.range(2) > 0)
      L->reserve(N);
    for (int64_t K : Keys)
      L->push_back(K);
    benchmark::DoNotOptimize(L->size());
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(N));
  State.SetLabel(populateLabel(listVariantName(Variant), State.range(2)));
}

void bmListContains(benchmark::State &State) {
  auto Variant = static_cast<ListVariant>(State.range(0));
  size_t N = static_cast<size_t>(State.range(1));
  std::vector<int64_t> Keys = keysFor(N);
  auto L = makeListImpl<int64_t>(Variant);
  for (int64_t K : Keys)
    L->push_back(K);
  size_t I = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(L->contains(Keys[I++ % N]));
  }
  State.SetLabel(listVariantName(Variant));
}

/// Three lookups in four miss: the instance holds even keys and the
/// probes are odd, except every fourth, which is a held key.
void bmListContainsMiss(benchmark::State &State) {
  auto Variant = static_cast<ListVariant>(State.range(0));
  size_t N = static_cast<size_t>(State.range(1));
  std::vector<int64_t> Keys = keysFor(N);
  auto L = makeListImpl<int64_t>(Variant);
  for (int64_t K : Keys)
    L->push_back(K * 2);
  std::vector<int64_t> Probes;
  for (size_t I = 0; I != N; ++I)
    Probes.push_back(Keys[I] * 2 + (I % 4 != 0));
  size_t I = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(L->contains(Probes[I++ % N]));
  }
  State.SetLabel(std::string(listVariantName(Variant)) + " 75% misses");
}

void bmSetPopulate(benchmark::State &State) {
  auto Variant = static_cast<SetVariant>(State.range(0));
  size_t N = static_cast<size_t>(State.range(1));
  std::vector<int64_t> Keys = keysFor(N);
  for (auto _ : State) {
    auto S = makeSetImpl<int64_t>(Variant);
    if (State.range(2) > 0)
      S->reserve(N);
    for (int64_t K : Keys)
      S->add(K);
    benchmark::DoNotOptimize(S->size());
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(N));
  State.SetLabel(populateLabel(setVariantName(Variant), State.range(2)));
}

void bmSetContains(benchmark::State &State) {
  auto Variant = static_cast<SetVariant>(State.range(0));
  size_t N = static_cast<size_t>(State.range(1));
  std::vector<int64_t> Keys = keysFor(N);
  auto S = makeSetImpl<int64_t>(Variant);
  for (int64_t K : Keys)
    S->add(K);
  size_t I = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(S->contains(Keys[I++ % N]));
  }
  State.SetLabel(setVariantName(Variant));
}

void bmMapGet(benchmark::State &State) {
  auto Variant = static_cast<MapVariant>(State.range(0));
  size_t N = static_cast<size_t>(State.range(1));
  std::vector<int64_t> Keys = keysFor(N);
  auto M = makeMapImpl<int64_t, int64_t>(Variant);
  for (int64_t K : Keys)
    M->put(K, K);
  size_t I = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(M->get(Keys[I++ % N]));
  }
  State.SetLabel(mapVariantName(Variant));
}

void bmModelLoad(benchmark::State &State) {
  const std::string Path = CSWITCH_DATA_DIR "/cswitch_model.txt";
  std::string Error;
  for (auto _ : State) {
    PerformanceModel Model;
    if (!Model.loadFromFile(Path, &Error)) {
      State.SkipWithError(("cannot load " + Path + ": " + Error).c_str());
      break;
    }
    augmentConcurrentCoverage(Model);
    benchmark::DoNotOptimize(Model);
  }
}

void registerAll() {
  for (ListVariant V : AllListVariants) {
    for (int64_t N : {16, 256}) {
      benchmark::RegisterBenchmark("bm_list_populate", bmListPopulate)
          ->Args({static_cast<int64_t>(V), N, -1})->MinTime(0.02);
      benchmark::RegisterBenchmark("bm_list_contains", bmListContains)
          ->Args({static_cast<int64_t>(V), N})->MinTime(0.02);
      benchmark::RegisterBenchmark("bm_list_contains_miss",
                                   bmListContainsMiss)
          ->Args({static_cast<int64_t>(V), N})->MinTime(0.02);
    }
  }
  for (SetVariant V : AllSetVariants) {
    for (int64_t N : {16, 256}) {
      benchmark::RegisterBenchmark("bm_set_populate", bmSetPopulate)
          ->Args({static_cast<int64_t>(V), N, -1})->MinTime(0.02);
      benchmark::RegisterBenchmark("bm_set_contains", bmSetContains)
          ->Args({static_cast<int64_t>(V), N})->MinTime(0.02);
    }
  }
  for (MapVariant V : AllMapVariants) {
    for (int64_t N : {16, 256}) {
      benchmark::RegisterBenchmark("bm_map_get", bmMapGet)
          ->Args({static_cast<int64_t>(V), N})->MinTime(0.02);
    }
  }
  benchmark::RegisterBenchmark("bm_model_load", bmModelLoad)
      ->Unit(benchmark::kMicrosecond)
      ->MinTime(0.2);
  // Growing vs reserved populate: what presizing a new instance at its
  // site's capacity hint saves (DESIGN.md §4.2).
  for (int64_t N : {16, 256, 1000}) {
    for (int64_t Reserve : {0, 1}) {
      for (ListVariant V : {ListVariant::ArrayList, ListVariant::HashArrayList})
        benchmark::RegisterBenchmark("bm_list_presize", bmListPopulate)
            ->Args({static_cast<int64_t>(V), N, Reserve})
            ->MinTime(0.02);
      for (SetVariant V : {SetVariant::ChainedHashSet, SetVariant::OpenHashSet,
                           SetVariant::CompactHashSet})
        benchmark::RegisterBenchmark("bm_set_presize", bmSetPopulate)
            ->Args({static_cast<int64_t>(V), N, Reserve})
            ->MinTime(0.02);
    }
  }
}

} // namespace

int main(int Argc, char **Argv) {
  registerAll();
  benchmark::Initialize(&Argc, Argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
