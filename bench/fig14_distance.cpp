// Fig. 14 — Localization accuracy vs projected distance from the reader.
// Methodology per paper Section 7.3(b): the reader's transmit power is
// stepped down and mapped to a projected distance through the free-space
// model; 50 experiments, aperture fixed at 1 m; SAR vs RSSI.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "channel/path_loss.h"
#include "core/experiments.h"

using namespace rfly;
using namespace rfly::core;

int main(int argc, char** argv) {
  bench::CliOptions opts;
  opts.trials = 50 / 10 + 4;  // ~9 per point, ~90 total (paper: 50)
  opts.seed = 881;            // placement stream
  if (!opts.parse(argc, argv)) return 2;

  bench::header("Fig. 14", "localization error vs projected distance (SAR vs RSSI)");

  // The physical bench sits at a fixed 5 m with reduced EIRP; projected
  // distance d satisfies FSPL(d) = FSPL(5 m) + (30 dBm - EIRP).
  const double base_distance = 5.0;
  const double base_eirp = 30.0;

  std::printf(
      "  proj_dist_m   eirp_dBm   snr_db   sar_p10   sar_med   sar_p90  rssi_med\n");
  double sar_at_40 = 0.0;
  double sar_p90_at_40 = 0.0;
  double sar_p90_at_50 = 0.0;
  for (double projected : {5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0}) {
    const double extra_loss_db = 20.0 * std::log10(projected / base_distance);
    const double eirp = base_eirp - extra_loss_db;

    std::vector<double> sar;
    std::vector<double> rssi;
    double snr_sum = 0.0;
    int snr_n = 0;
    Rng placement(opts.seed);
    const int trials = opts.trials;
    for (int t = 0; t < trials; ++t) {
      LocalizationTrialConfig cfg;
      cfg.system.reader_eirp_dbm = eirp;
      // Bench gain trim: the relay is tuned below PA saturation at the
      // 5 m bench distance (as in the paper's controlled microbenchmark),
      // so reducing the reader's transmit power maps 1:1 onto SNR.
      cfg.system.relay_downlink_gain_db = 45.0;
      cfg.shelf_rows = 0;
      cfg.reader_position = {10.0, 10.0, 1.0};
      cfg.tag_position = {15.0 + placement.uniform(-1.0, 1.0),
                          10.0 + placement.uniform(-1.0, 1.0), 0.0};
      cfg.aperture_m = 1.0;
      // Robot passes close to the tag (the paper controls the relay-tag
      // distance separately from the projected reader distance).
      cfg.flight_offset_y_m = 0.8;
      cfg.flight_altitude_m = 0.3;
      cfg.sar_search = opts.search;
      const auto result = run_localization_trial(
          cfg, 7000 + static_cast<std::uint64_t>(t) * 17 +
                   static_cast<std::uint64_t>(projected));
      if (!result) continue;
      sar.push_back(result->sar_error_m);
      rssi.push_back(result->rssi_error_m);

      channel::Environment env;
      RflySystem probe(cfg.system, env, cfg.reader_position);
      snr_sum += probe.reply_snr_db(
          {cfg.tag_position.x, cfg.tag_position.y + cfg.flight_offset_y_m, 0.3},
          cfg.tag_position);
      ++snr_n;
    }
    const double snr = snr_n > 0 ? snr_sum / snr_n : 0.0;
    std::printf("  %11.0f   %8.1f   %6.1f   %7.3f   %7.3f   %7.3f  %8.3f\n",
                projected, eirp, snr, percentile(sar, 10), median(sar),
                percentile(sar, 90), median(rssi));
    if (projected == 40.0) {
      sar_at_40 = median(sar);
      sar_p90_at_40 = percentile(sar, 90);
    }
    if (projected == 50.0) sar_p90_at_50 = percentile(sar, 90);
  }

  std::printf("\n");
  bench::paper_vs_ours("SAR median error at 40 m projected [cm]", "<18",
                       100.0 * sar_at_40, "cm");
  bench::paper_vs_ours("SAR 90th pct at 40 m projected [cm]", "<24",
                       100.0 * sar_p90_at_40, "cm");
  bench::paper_vs_ours("SAR 90th pct beyond 50 m [cm]", "82",
                       100.0 * sar_p90_at_50, "cm");

  bench::Metrics metrics;
  metrics.add("sar_median_at_40m", sar_at_40);
  metrics.add("sar_p90_at_40m", sar_p90_at_40);
  metrics.add("sar_p90_at_50m", sar_p90_at_50);
  if (!bench::finish_observability(opts, metrics)) return 1;
  if (!metrics.write(opts.out)) return 1;
  return 0;
}
