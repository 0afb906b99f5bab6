// Factory selection of the simulator-side PeerSampler implementations:
// callers name a kind and hold the abstract interface, so swapping the
// sampling strategy never touches call sites.
// (The socket plane's net::PeerDirectory is constructed directly — it needs
// a transport and has no place in a sim-side factory.)
#pragma once

#include <memory>
#include <optional>
#include <string_view>

#include "pss/newscast.hpp"
#include "pss/online_directory.hpp"
#include "pss/peer_sampler.hpp"
#include "util/rng.hpp"

namespace tribvote::pss {

enum class SamplerKind : std::uint8_t {
  kOracle,    ///< exact uniform over the online set (paper §III)
  kNewscast,  ///< gossip view exchange (Newscast / BuddyCast family)
};

[[nodiscard]] const char* sampler_kind_name(SamplerKind kind) noexcept;
[[nodiscard]] std::optional<SamplerKind> parse_sampler_kind(
    std::string_view name) noexcept;

/// Construct a sampler over `directory` (which must outlive it). `newscast`
/// is consulted only for SamplerKind::kNewscast; `rng` seeds the sampler's
/// private stream.
[[nodiscard]] std::unique_ptr<PeerSampler> make_sampler(
    SamplerKind kind, std::size_t n_peers, const OnlineDirectory& directory,
    const NewscastConfig& newscast, util::Rng rng);

}  // namespace tribvote::pss
