// The one way tests push owning EstimateRecords into a collector that
// ingests only zero-copy views (ConcurrentShardedCollector, and so every
// CollectorAgent): encode them to wire bytes, decode those into RecordViews,
// and submit the views — the same path a record batch frame takes.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "collect/concurrent_collector.h"
#include "collect/estimate_record.h"

namespace rlir::testutil {

inline void submit_records(collect::ConcurrentShardedCollector& collector,
                           const std::vector<collect::EstimateRecord>& records) {
  const std::vector<std::uint8_t> wire = collect::encode_records(records);
  std::vector<collect::RecordView> views;
  ASSERT_EQ(collect::decode_record_views_prefix(wire.data(), wire.size(), views), wire.size());
  collector.submit_views(views);
}

}  // namespace rlir::testutil
