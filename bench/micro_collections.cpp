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
//   bm_list_contains: HashArrayList flat, ArrayList linear.
//
// Both sizes put the open-addressing tables at load exactly 1/2, and the
// loops repeat hits on a cache-resident table. There the group-probed
// tables pay for the control-byte load that precedes the key compare,
// and back-to-back inserts are slower than linear probing's. Their gains,
// on misses and near the 7/8 load limit, show in the repository
// benchmark's op_stream workload (bench/suite), not here.
//
//===----------------------------------------------------------------------===//

#include "collections/Factory.h"
#include "support/Random.h"

#include <benchmark/benchmark.h>

using namespace cswitch;

namespace {

std::vector<int64_t> keysFor(size_t N) {
  SplitMix64 Rng(5);
  return distinctIntegers(Rng, N, static_cast<int64_t>(N) * 8 + 64);
}

void bmListPopulate(benchmark::State &State) {
  auto Variant = static_cast<ListVariant>(State.range(0));
  size_t N = static_cast<size_t>(State.range(1));
  std::vector<int64_t> Keys = keysFor(N);
  for (auto _ : State) {
    auto L = makeListImpl<int64_t>(Variant);
    for (int64_t K : Keys)
      L->push_back(K);
    benchmark::DoNotOptimize(L->size());
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(N));
  State.SetLabel(listVariantName(Variant));
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

void bmSetPopulate(benchmark::State &State) {
  auto Variant = static_cast<SetVariant>(State.range(0));
  size_t N = static_cast<size_t>(State.range(1));
  std::vector<int64_t> Keys = keysFor(N);
  for (auto _ : State) {
    auto S = makeSetImpl<int64_t>(Variant);
    for (int64_t K : Keys)
      S->add(K);
    benchmark::DoNotOptimize(S->size());
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(N));
  State.SetLabel(setVariantName(Variant));
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

void registerAll() {
  for (ListVariant V : AllListVariants) {
    for (int64_t N : {16, 256}) {
      benchmark::RegisterBenchmark("bm_list_populate", bmListPopulate)
          ->Args({static_cast<int64_t>(V), N})->MinTime(0.02);
      benchmark::RegisterBenchmark("bm_list_contains", bmListContains)
          ->Args({static_cast<int64_t>(V), N})->MinTime(0.02);
    }
  }
  for (SetVariant V : AllSetVariants) {
    for (int64_t N : {16, 256}) {
      benchmark::RegisterBenchmark("bm_set_populate", bmSetPopulate)
          ->Args({static_cast<int64_t>(V), N})->MinTime(0.02);
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
}

} // namespace

int main(int Argc, char **Argv) {
  registerAll();
  benchmark::Initialize(&Argc, Argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
