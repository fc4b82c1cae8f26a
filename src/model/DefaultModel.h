//===- DefaultModel.h - Built-in fallback performance model -----*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A built-in performance model with analytic cost estimates for every
/// variant, so the framework selects sensibly out of the box and unit
/// tests are deterministic. The paper's position (§4.1) is that the model
/// must be rebuilt per target machine — run `bench/model_builder` to
/// regenerate and persist a measured model; this file only encodes the
/// *relative structure* every machine shares (array scans are linear and
/// cheap per element, chained tables pay pointer chasing, open tables are
/// constant-time, compact tables trade lookup speed for bytes).
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_MODEL_DEFAULTMODEL_H
#define CSWITCH_MODEL_DEFAULTMODEL_H

#include "model/CostModel.h"

#include <string>

namespace cswitch {

/// Returns the built-in analytic performance model.
PerformanceModel defaultPerformanceModel();

/// Backfills \p Model with the default rows of the concurrent-tier
/// variants it does not cover, and with the analytic contention
/// polynomials (which no measurement produces). Lets models serialized
/// before the concurrent tier existed — or rebuilt by the single-thread
/// ModelBuilder — drive concurrent selection.
void augmentConcurrentCoverage(PerformanceModel &Model);

/// The one way a tool reads a model file: loads the document at \p Path
/// into \p Model (PerformanceModel::loadFromFile) and backfills its
/// concurrent tier (augmentConcurrentCoverage), so a sequential-only
/// measured model still drives concurrent selection. An empty \p Path
/// selects defaultPerformanceModel(). On failure \returns false, leaves
/// \p Model unchanged and, when \p Error is non-null, says why.
bool loadModelFile(const std::string &Path, PerformanceModel &Model,
                   std::string *Error = nullptr);

} // namespace cswitch

#endif // CSWITCH_MODEL_DEFAULTMODEL_H
