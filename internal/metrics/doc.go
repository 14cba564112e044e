// Package metrics implements the measurement machinery behind the paper's
// evaluation section (§V):
//
//   - search efficiency: success rate (requests with ≥1 result) and mean
//     response time over successful requests (§V-A), plus the bandwidth
//     consumed per search (Fig. 6);
//   - system load: "all P2P traffics triggered by external events such as a
//     search request", measured as bandwidth consumption per node per
//     second (footnote 1, §V-B). Keep-alive and download traffic are out of
//     scope and never accounted. The per-second series yields the mean
//     (Fig. 8), the standard deviation (Fig. 9) and the real-time snapshot
//     (Fig. 10);
//   - the ASAP load breakdown by message class (Fig. 7): full ads versus
//     patch ads, refresh ads and search traffic.
//
// LoadAccount buckets message bytes into one-second bins by message class,
// one plain add per message: a run has a single writer, and a bucket is an
// order-free sum. Which classes count toward "system load" differs per
// scheme (the paper counts only query messages for the baselines, and
// everything but downloads for ASAP), so aggregation takes a class mask.
package metrics
