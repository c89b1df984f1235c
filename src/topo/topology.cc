#include "topo/topology.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace rootless::topo {

namespace {

// Distinct hash-domain tags so the placement, sampling, and catchment
// streams never collide even for equal ids/salts.
constexpr std::uint64_t kPlacementTag = 0x5EED5EEDCAFEF00DULL;
constexpr std::uint64_t kSampleTag = 0xB10B5A17E0A7EA5EULL;
constexpr std::uint64_t kCatchmentTag = 0xA17CA7C4A7C4A11FULL;
constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;

// Even a next-door instance is reached through a metro exchange: a floor on
// the path length keeps the perturbation meaningful for short hops, so two
// nearby instances can realistically swap catchment order.
constexpr double kMinRouteKm = 40.0;

double UnitFromHash(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

const std::vector<RegionSpec>& DefaultRegions() {
  static const std::vector<RegionSpec> kDefault = {
      {"north-america", {40.0, -100.0}, 12.0, 0.20},
      {"europe", {50.0, 10.0}, 9.0, 0.22},
      {"east-asia", {30.0, 114.0}, 10.0, 0.24},
      {"south-asia", {20.0, 78.0}, 8.0, 0.11},
      {"southeast-asia", {10.0, 106.0}, 6.0, 0.08},
      {"latin-america", {-15.0, -55.0}, 10.0, 0.07},
      {"oceania", {-28.0, 140.0}, 9.0, 0.04},
      {"africa", {5.0, 20.0}, 12.0, 0.04},
  };
  return kDefault;
}

Topology::Topology(TopologyOptions options)
    : options_(std::move(options)),
      regions_(options_.regions.empty() ? DefaultRegions()
                                        : options_.regions),
      deployment_(options_.seed),
      instances_(deployment_.AllInstancesOn(options_.date)) {
  ROOTLESS_CHECK(!regions_.empty());
  total_weight_ = 0;
  for (const auto& r : regions_) total_weight_ += r.weight;
  ROOTLESS_CHECK(total_weight_ > 0);
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    by_letter_[IndexForLetter(instances_[i].letter)].push_back(i);
  }
}

int Topology::RegionIndexOf(std::string_view name) const {
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    if (regions_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

GeoPoint Topology::PointNear(const RegionSpec& region, util::Rng& rng) const {
  GeoPoint p;
  p.latitude_deg = region.centre.latitude_deg + rng.Normal(0, region.spread_deg);
  p.longitude_deg =
      region.centre.longitude_deg + rng.Normal(0, region.spread_deg * 1.5);
  if (p.latitude_deg > 85) p.latitude_deg = 85;
  if (p.latitude_deg < -85) p.latitude_deg = -85;
  while (p.longitude_deg >= 180) p.longitude_deg -= 360;
  while (p.longitude_deg < -180) p.longitude_deg += 360;
  return p;
}

Topology::ResolverSite Topology::PlaceResolver(
    std::uint64_t resolver_id) const {
  std::uint64_t s = options_.seed ^ kPlacementTag;
  s += kGolden * (resolver_id + 1);
  util::Rng rng(util::SplitMix64(s));
  double pick = rng.UnitDouble() * total_weight_;
  int region = 0;
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    region = static_cast<int>(i);
    if (pick < regions_[i].weight) break;
    pick -= regions_[i].weight;
  }
  return {region, PointNear(regions_[static_cast<std::size_t>(region)], rng)};
}

GeoPoint Topology::SampleInRegion(int region, std::uint64_t salt) const {
  ROOTLESS_CHECK(region >= 0 &&
                 static_cast<std::size_t>(region) < regions_.size());
  std::uint64_t s = options_.seed ^ kSampleTag;
  s += kGolden * (salt + 1);
  s ^= static_cast<std::uint64_t>(region) << 40;
  util::Rng rng(util::SplitMix64(s));
  return PointNear(regions_[static_cast<std::size_t>(region)], rng);
}

double Topology::InflationMultiplier(std::uint64_t resolver_id,
                                     int letter_index,
                                     std::size_t instance) const {
  // A pure hash chain over (seed, resolver, letter, instance) — no RNG
  // stream, so evaluation order can never matter and any shard layout
  // computes identical catchments.
  std::uint64_t s = options_.seed ^ kCatchmentTag;
  s += kGolden * (resolver_id + 1);
  (void)util::SplitMix64(s);
  s ^= (static_cast<std::uint64_t>(letter_index) << 32) +
       static_cast<std::uint64_t>(instance);
  const double u1 = UnitFromHash(util::SplitMix64(s));
  const double u2 = UnitFromHash(util::SplitMix64(s));
  if (u1 < options_.poor_path_share) {
    // Badly routed: the F-ROOT "wrong continent" tail.
    return 1.0 + options_.bgp_inflation * (1.0 + 9.0 * u2);
  }
  return 1.0 + options_.bgp_inflation * u2;
}

Topology::Catchment Topology::CatchmentAt(const GeoPoint& where,
                                          std::uint64_t resolver_id,
                                          char letter) const {
  const int li = IndexForLetter(letter);
  const auto& candidates = by_letter_[li];
  ROOTLESS_CHECK(!candidates.empty());
  Catchment best;
  double best_eff = 0;
  bool first = true;
  for (std::size_t j : candidates) {
    const double km = GreatCircleKm(where, instances_[j].location);
    const double eff =
        (km + kMinRouteKm) * InflationMultiplier(resolver_id, li, j);
    if (first || eff < best_eff) {
      first = false;
      best_eff = eff;
      best = Catchment{j, km, eff};
    }
  }
  return best;
}

sim::SimTime Topology::CatchmentRtt(const GeoPoint& where,
                                    std::uint64_t resolver_id,
                                    char letter) const {
  const Catchment c = CatchmentAt(where, resolver_id, letter);
  return 2 * LatencyForDistanceKm(c.effective_km);
}

namespace {

Topology::RttDistribution DistributionOf(std::vector<sim::SimTime>& rtts) {
  std::sort(rtts.begin(), rtts.end());
  const std::size_t n = rtts.size();
  auto at = [&](std::size_t pct) { return rtts[(n - 1) * pct / 100]; };
  Topology::RttDistribution d;
  d.p10 = at(10);
  d.p50 = at(50);
  d.p90 = at(90);
  d.p99 = at(99);
  std::uint64_t sum = 0;
  for (const sim::SimTime t : rtts) sum += t;
  d.mean_us = static_cast<double>(sum) / static_cast<double>(n);
  return d;
}

}  // namespace

Topology::RttDistribution Topology::RegionRootRtt(int region,
                                                  int samples) const {
  ROOTLESS_CHECK(samples > 0);
  std::vector<sim::SimTime> rtts;
  rtts.reserve(static_cast<std::size_t>(samples));
  for (int s = 0; s < samples; ++s) {
    const auto salt = static_cast<std::uint64_t>(s);
    const GeoPoint where = SampleInRegion(region, salt);
    const std::uint64_t rid =
        (static_cast<std::uint64_t>(region) << 32) + salt;
    sim::SimTime best = 0;
    for (int li = 0; li < kRootLetterCount; ++li) {
      const sim::SimTime rtt = CatchmentRtt(where, rid, LetterForIndex(li));
      if (li == 0 || rtt < best) best = rtt;
    }
    rtts.push_back(best);
  }
  return DistributionOf(rtts);
}

void Topology::PlaceNode(sim::NodeId node, const GeoPoint& location) {
  if (node_locations_.size() <= node) node_locations_.resize(node + 1);
  node_locations_[node] = location;
}

GeoPoint Topology::LocationOf(sim::NodeId node) const {
  return node < node_locations_.size() ? node_locations_[node] : GeoPoint{};
}

sim::SimTime Topology::Latency(sim::NodeId a, sim::NodeId b) const {
  if (a == b) return kLoopbackLatency;
  const GeoPoint pa = LocationOf(a);
  const GeoPoint pb = LocationOf(b);
  if (SameSite(pa, pb)) return kLoopbackLatency;
  return LatencyForDistanceKm(GreatCircleKm(pa, pb));
}

sim::Network::LatencyFn Topology::LatencyFn() const {
  return [this](sim::NodeId a, sim::NodeId b) { return Latency(a, b); };
}

}  // namespace rootless::topo
