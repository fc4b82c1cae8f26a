//===- MetricsExport.h - Telemetry serialization ----------------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serializers for TelemetrySnapshot: a stable JSON document (schema
/// "cswitch-telemetry-v1", consumed by the CI bench artifacts and the
/// snapshot-consistency tests), plus the small JSON string escaping
/// helper the tools reuse for their own reports.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_SUPPORT_METRICSEXPORT_H
#define CSWITCH_SUPPORT_METRICSEXPORT_H

#include "support/Telemetry.h"

#include <string>
#include <string_view>

namespace cswitch {

/// Escapes \p Text for inclusion inside a JSON string literal: quotes,
/// backslashes and control characters are escaped, valid UTF-8 passes
/// through verbatim, and bytes that are not well-formed UTF-8 become
/// U+FFFD so the emitted document always parses.
std::string jsonEscape(std::string_view Text);

/// Serializes \p Snapshot as a `cswitch-telemetry-v1` JSON document:
/// `schema`, then one object per section (`engine`, `topology`,
/// `latency`, `events`, `recorder`, `store`, `fleet`, `model`), then
/// the `contexts` array. Each section's keys are the rows
/// of its stats struct's field table in support/Telemetry.h, in row
/// order; `latency` blocks and the per-context
/// name/abstraction/variant/footprint/contention fields are written by
/// hand. Engine totals always equal the per-context column sums of a
/// SwitchEngine snapshot (the round-trip invariant the tests pin down).
std::string toJson(const TelemetrySnapshot &Snapshot);

/// Writes \p Content to \p Path; returns false on I/O failure.
bool writeTextFile(const std::string &Path, std::string_view Content);

} // namespace cswitch

#endif // CSWITCH_SUPPORT_METRICSEXPORT_H
