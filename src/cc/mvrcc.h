#pragma once

#include "core/rocc.h"

namespace rocc {

/// Deuteronomy-style multi-version range concurrency control comparator
/// (paper §VI, Fig. 13), modelled as the paper's own DBx1000 port does:
/// identical range lists and registration, but
///
///  (1) boundary ranges are treated as fully scanned — predicates drop their
///      precise [start, end) scope, so any overlapping writer in a partially
///      scanned range aborts the scan ("it causes more false aborts"), and
///  (2) the per-range lists are not ordered usefully for the validator, so
///      every registration in the examined window is charged as an examined
///      transaction.
///
/// The substitution from the true multi-version timestamp-ordering protocol
/// is recorded in DESIGN.md §3; it reproduces exactly the two deficits §VI
/// attributes to MVRCC.
///
/// MVRCC inherits ROCC's static range layout and rings unchanged; only the
/// boundary imprecision above differs.
class Mvrcc : public Rocc {
 public:
  Mvrcc(Database* db, uint32_t num_threads, RoccOptions options)
      : Rocc(db, num_threads, std::move(options)) {}

  const char* Name() const override { return "MVRCC"; }

 protected:
  bool PreciseBoundaries() const override { return false; }
};

}  // namespace rocc
