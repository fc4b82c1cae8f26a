//===- DefaultModel.cpp - Built-in fallback performance model ------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// The constants below are nanoseconds (time dimension) and bytes (alloc
// dimension) per operation for 8-byte elements, expressed as {c0, c1}
// polynomials of the collection size. They were chosen to match the
// measured shape on a commodity x86-64 core and — more importantly — to
// preserve the *orderings* the selection rules depend on:
//
//  * linear scans cost ~0.5 ns/element (contiguous, predictable),
//  * pointer-chasing variants pay ~2 ns/element and ~15 ns/lookup,
//  * open addressing at load 1/2 is the fastest O(1) lookup,
//  * compact open addressing saves bytes but pays ~40% on lookups,
//  * node-based variants allocate the most bytes per insertion.
//
//===----------------------------------------------------------------------===//

#include "model/DefaultModel.h"

using namespace cswitch;

namespace {

/// One row of the default cost table.
struct CostRow {
  OperationKind Op;
  double TimeC0, TimeC1; ///< ns = TimeC0 + TimeC1 * size
  double AllocBytes;     ///< bytes allocated per operation (size-free)
};

void setRows(PerformanceModel &Model, VariantId Variant,
             std::initializer_list<CostRow> Rows) {
  for (const CostRow &Row : Rows) {
    Model.setCost(Variant, Row.Op, CostDimension::Time,
                  Polynomial({Row.TimeC0, Row.TimeC1}));
    Model.setCost(Variant, Row.Op, CostDimension::Alloc,
                  Polynomial({Row.AllocBytes}));
  }
}

/// Installs the contention polynomial {-Slope, Slope} — i.e.
/// Slope * (threads - 1) extra nanoseconds per operation, clamped to 0
/// at one thread by evaluateNonNegative — for each listed operation.
void setContention(PerformanceModel &Model, VariantId Variant,
                   std::initializer_list<OperationKind> Ops, double Slope) {
  for (OperationKind Op : Ops)
    Model.setCost(Variant, Op, CostDimension::Contention,
                  Polynomial({-Slope, Slope}));
}

/// Installs the concurrent tier's default rows (below
/// defaultPerformanceModel's sequential ones).
void setConcurrentRows(PerformanceModel &Model) {
  using OK = OperationKind;

  // --- Concurrent tier (DESIGN.md §11) ------------------------------------
  //
  // Base time rows are the sequential analogue plus the uncontended lock
  // overhead (~4 ns for one mutex, ~9 ns for striped: shard dispatch +
  // lock). The contention dimension adds Slope * (threads - 1) ns per
  // operation on top: a single mutex convoys (~55 ns/extra thread) while
  // a striped table only collides with probability ~1/shards (~4 ns).
  // Under the ratio rule (0.8) this makes the mutex strategy win at one
  // thread and lose to striping from two threads on.

  // MutexList = ArrayList + one lock acquisition per operation.
  setRows(Model, VariantId::of(ListVariant::MutexList),
          {{OK::Populate, 8, 0, 24},
           {OK::Contains, 6, 0.5, 0},
           {OK::Iterate, 8, 0.5, 0},
           {OK::IndexAccess, 6, 0, 0},
           {OK::Middle, 16, 0.15, 0},
           {OK::Remove, 14, 0.5, 0}});
  setContention(Model, VariantId::of(ListVariant::MutexList),
                {OK::Populate, OK::Contains, OK::Iterate, OK::IndexAccess,
                 OK::Middle, OK::Remove},
                55);

  // SnapshotList: lock-free reads at sequential-array speed; every
  // write copies the whole array (linear time and bytes). Writers still
  // serialize, but copying dominates, so their contention slope is
  // lower than a fully convoying mutex; reads never contend.
  setRows(Model, VariantId::of(ListVariant::SnapshotList),
          {{OK::Populate, 30, 0.9, 0},
           {OK::Contains, 2, 0.5, 0},
           {OK::Iterate, 4, 0.5, 0},
           {OK::IndexAccess, 2, 0, 0},
           {OK::Middle, 30, 0.9, 0},
           {OK::Remove, 30, 0.9, 0}});
  for (OperationKind Op : {OK::Populate, OK::Middle, OK::Remove})
    Model.setCost(VariantId::of(ListVariant::SnapshotList), Op,
                  CostDimension::Alloc, Polynomial({40, 8}));
  setContention(Model, VariantId::of(ListVariant::SnapshotList),
                {OK::Populate, OK::Middle, OK::Remove}, 30);

  // MutexHashSet / StripedHashSet over OpenHashSet.
  setRows(Model, VariantId::of(SetVariant::MutexHashSet),
          {{OK::Populate, 22, 0, 40},
           {OK::Contains, 11, 0, 0},
           {OK::Iterate, 8, 0.9, 0},
           {OK::Remove, 13, 0, 0}});
  setContention(Model, VariantId::of(SetVariant::MutexHashSet),
                {OK::Populate, OK::Contains, OK::Iterate, OK::Remove}, 55);
  setRows(Model, VariantId::of(SetVariant::StripedHashSet),
          {{OK::Populate, 27, 0, 52},
           {OK::Contains, 16, 0, 0},
           {OK::Iterate, 13, 1.0, 0},
           {OK::Remove, 18, 0, 0}});
  setContention(Model, VariantId::of(SetVariant::StripedHashSet),
                {OK::Populate, OK::Contains, OK::Iterate, OK::Remove}, 4);

  // MutexHashMap / ShardedHashMap over OpenHashMap.
  setRows(Model, VariantId::of(MapVariant::MutexHashMap),
          {{OK::Populate, 24, 0, 60},
           {OK::Contains, 12, 0, 0},
           {OK::Iterate, 8, 1.1, 0},
           {OK::Remove, 14, 0, 0}});
  setContention(Model, VariantId::of(MapVariant::MutexHashMap),
                {OK::Populate, OK::Contains, OK::Iterate, OK::Remove}, 55);
  setRows(Model, VariantId::of(MapVariant::ShardedHashMap),
          {{OK::Populate, 29, 0, 72},
           {OK::Contains, 17, 0, 0},
           {OK::Iterate, 13, 1.2, 0},
           {OK::Remove, 19, 0, 0}});
  setContention(Model, VariantId::of(MapVariant::ShardedHashMap),
                {OK::Populate, OK::Contains, OK::Iterate, OK::Remove}, 4);
}

} // namespace

PerformanceModel cswitch::defaultPerformanceModel() {
  using OK = OperationKind;
  PerformanceModel Model;

  // --- Lists -------------------------------------------------------------
  setRows(Model, VariantId::of(ListVariant::ArrayList),
          {{OK::Populate, 4, 0, 24},
           {OK::Contains, 2, 0.5, 0},
           {OK::Iterate, 4, 0.5, 0},
           {OK::IndexAccess, 2, 0, 0},
           {OK::Middle, 12, 0.15, 0},
           {OK::Remove, 10, 0.5, 0}});
  setRows(Model, VariantId::of(ListVariant::LinkedList),
          {{OK::Populate, 18, 0, 32},
           {OK::Contains, 4, 1.8, 0},
           {OK::Iterate, 4, 2.0, 0},
           {OK::IndexAccess, 4, 0.9, 0},
           {OK::Middle, 6, 0.9, 0},
           {OK::Remove, 8, 1.8, 0}});
  setRows(Model, VariantId::of(ListVariant::HashArrayList),
          {{OK::Populate, 30, 0, 80},
           {OK::Contains, 10, 0, 0},
           {OK::Iterate, 4, 0.5, 0},
           {OK::IndexAccess, 2, 0, 0},
           {OK::Middle, 40, 0.15, 0},
           // Remove checks the bag, then still scans the array and
           // maintains both structures — strictly slower than ArrayList.
           {OK::Remove, 30, 0.5, 0}});
  setRows(Model, VariantId::of(ListVariant::AdaptiveList),
          {{OK::Populate, 10, 0, 40},
           {OK::Contains, 12, 0, 0},
           {OK::Iterate, 4, 0.55, 0},
           {OK::IndexAccess, 2, 0, 0},
           {OK::Middle, 14, 0.15, 0},
           {OK::Remove, 12, 0.4, 0}});

  // --- Sets ----------------------------------------------------------------
  setRows(Model, VariantId::of(SetVariant::ChainedHashSet),
          {{OK::Populate, 35, 0, 60},
           {OK::Contains, 14, 0, 0},
           {OK::Iterate, 8, 1.6, 0},
           {OK::Remove, 16, 0, 0}});
  setRows(Model, VariantId::of(SetVariant::OpenHashSet),
          {{OK::Populate, 18, 0, 40},
           {OK::Contains, 7, 0, 0},
           {OK::Iterate, 4, 0.9, 0},
           {OK::Remove, 9, 0, 0}});
  setRows(Model, VariantId::of(SetVariant::LinkedHashSet),
          {{OK::Populate, 40, 0, 80},
           {OK::Contains, 14, 0, 0},
           {OK::Iterate, 4, 1.2, 0},
           {OK::Remove, 18, 0, 0}});
  setRows(Model, VariantId::of(SetVariant::ArraySet),
          // add() performs a duplicate check, hence the linear term.
          {{OK::Populate, 4, 0.5, 18},
           {OK::Contains, 2, 0.5, 0},
           {OK::Iterate, 3, 0.5, 0},
           {OK::Remove, 6, 0.5, 0}});
  setRows(Model, VariantId::of(SetVariant::CompactHashSet),
          {{OK::Populate, 22, 0, 22},
           {OK::Contains, 10, 0, 0},
           {OK::Iterate, 4, 0.8, 0},
           {OK::Remove, 12, 0, 0}});
  setRows(Model, VariantId::of(SetVariant::AdaptiveSet),
          {{OK::Populate, 16, 0, 30},
           {OK::Contains, 10, 0, 0},
           {OK::Iterate, 4, 0.8, 0},
           {OK::Remove, 11, 0, 0}});
  // The log-n costs of the tree variants are approximated by a shallow
  // linear term over the modelled 10..1000 range.
  setRows(Model, VariantId::of(SetVariant::TreeSet),
          {{OK::Populate, 40, 0.02, 40},
           {OK::Contains, 14, 0.02, 0},
           {OK::Iterate, 6, 2.2, 0},
           {OK::Remove, 18, 0.02, 0}});
  setRows(Model, VariantId::of(SetVariant::SortedArraySet),
          {{OK::Populate, 8, 0.12, 18},
           {OK::Contains, 6, 0.01, 0},
           {OK::Iterate, 3, 0.5, 0},
           {OK::Remove, 8, 0.12, 0}});

  // --- Maps ----------------------------------------------------------------
  setRows(Model, VariantId::of(MapVariant::ChainedHashMap),
          {{OK::Populate, 38, 0, 70},
           {OK::Contains, 15, 0, 0},
           {OK::Iterate, 8, 1.8, 0},
           {OK::Remove, 17, 0, 0}});
  setRows(Model, VariantId::of(MapVariant::OpenHashMap),
          {{OK::Populate, 20, 0, 60},
           {OK::Contains, 8, 0, 0},
           {OK::Iterate, 4, 1.1, 0},
           {OK::Remove, 10, 0, 0}});
  setRows(Model, VariantId::of(MapVariant::LinkedHashMap),
          {{OK::Populate, 44, 0, 90},
           {OK::Contains, 15, 0, 0},
           {OK::Iterate, 4, 1.4, 0},
           {OK::Remove, 19, 0, 0}});
  setRows(Model, VariantId::of(MapVariant::ArrayMap),
          {{OK::Populate, 4, 0.5, 34},
           {OK::Contains, 2, 0.5, 0},
           {OK::Iterate, 3, 0.7, 0},
           {OK::Remove, 7, 0.5, 0}});
  setRows(Model, VariantId::of(MapVariant::CompactHashMap),
          {{OK::Populate, 25, 0, 34},
           {OK::Contains, 11, 0, 0},
           {OK::Iterate, 4, 1.0, 0},
           {OK::Remove, 13, 0, 0}});
  setRows(Model, VariantId::of(MapVariant::AdaptiveMap),
          {{OK::Populate, 18, 0, 45},
           {OK::Contains, 11, 0, 0},
           {OK::Iterate, 4, 1.0, 0},
           {OK::Remove, 12, 0, 0}});
  setRows(Model, VariantId::of(MapVariant::TreeMap),
          {{OK::Populate, 44, 0.02, 48},
           {OK::Contains, 15, 0.02, 0},
           {OK::Iterate, 6, 2.4, 0},
           {OK::Remove, 20, 0.02, 0}});
  setRows(Model, VariantId::of(MapVariant::SortedArrayMap),
          {{OK::Populate, 10, 0.12, 34},
           {OK::Contains, 7, 0.01, 0},
           {OK::Iterate, 3, 0.7, 0},
           {OK::Remove, 9, 0.12, 0}});

  setConcurrentRows(Model);
  return Model;
}

void cswitch::augmentConcurrentCoverage(PerformanceModel &Model) {
  // Only the concurrent tier's default rows are ever copied.
  PerformanceModel Defaults;
  setConcurrentRows(Defaults);
  for (size_t A = 0; A != NumAbstractionKinds; ++A) {
    auto Kind = static_cast<AbstractionKind>(A);
    for (unsigned V = firstConcurrentVariant(Kind),
                  E = static_cast<unsigned>(numVariantsOf(Kind));
         V != E; ++V) {
      VariantId Id{Kind, V};
      bool CopyAll = !Model.hasVariant(Id);
      for (OperationKind Op : AllOperationKinds) {
        for (CostDimension Dim : StoredCostDimensions) {
          // Contention cells are analytic, never measured; backfill them
          // even on variants the loaded model otherwise covers.
          if (!CopyAll && Dim != CostDimension::Contention)
            continue;
          if (!Model.cost(Id, Op, Dim).coefficients().empty())
            continue;
          const Polynomial &P = Defaults.cost(Id, Op, Dim);
          if (!P.coefficients().empty())
            Model.setCost(Id, Op, Dim, P);
        }
      }
    }
  }
}

bool cswitch::loadModelFile(const std::string &Path, PerformanceModel &Model,
                            std::string *Error) {
  if (Path.empty()) {
    Model = defaultPerformanceModel();
    return true;
  }
  if (!Model.loadFromFile(Path, Error))
    return false;
  augmentConcurrentCoverage(Model);
  return true;
}
