// Binary wire/archive codec for campaign jobs and Results.
//
// The campaign protocol ships two payload kinds: job specs (coordinator -> worker) and
// Results (worker -> coordinator). Both use the same conventions:
//
//  - little-endian fixed-width integers; doubles travel as IEEE-754 bit patterns, so
//    decoding reconstructs *bitwise identical* values (the whole campaign acceptance
//    bar - merged distributed output byte-identical to a serial run - hangs on this);
//  - containers as u32 count + elements; enums as u32 with range checks on decode;
//  - quantile sketches via stats::QuantileSketch::SerializeTo/DeserializeFrom;
//  - every Decode* is a total function over arbitrary bytes: truncated, oversized, or
//    out-of-range input returns false, never UB - remote payloads are untrusted.
//
// Payload integrity on the wire is the transport envelope's job (length + CRC32 in
// wire.h); the decoders here are the schema check behind it. An archive is the
// campaign's canonical merged output: per-job Results blobs in manifest order plus a
// merged trailer (pooled sketches + totals), so `cmp` on two archives is the
// byte-identity acceptance test.
//
// Each payload starts with a magic that names its layout; a decoder refuses any other
// layout rather than half-decode it. Archives keep one magic and carry a version field
// instead, and decoding a well-framed archive of an older version throws CampaignError
// naming that version (an old archive is a user-facing artifact, not line noise - it
// deserves a diagnosis, not a silent false). codec.cpp's version block is the one place
// that lists the versions and what each changed.
#ifndef TBF_CAMPAIGN_CODEC_H_
#define TBF_CAMPAIGN_CODEC_H_

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "tbf/campaign/manifest.h"
#include "tbf/scenario/results.h"

namespace tbf::campaign {

// A campaign-level failure: invalid manifest, completion log from a different
// manifest, a job that exhausted its attempt budget, or an archive from a codec
// version that predates the windowed stats format.
class CampaignError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// CRC-32 (IEEE 802.3 polynomial) of `data`.
uint32_t Crc32(std::string_view data);

// Lowercase hex <-> bytes. HexDecode returns false on odd length or non-hex digits.
std::string HexEncode(std::string_view bytes);
bool HexDecode(std::string_view hex, std::string* out);

std::string EncodeJob(const CampaignJob& job);
bool DecodeJob(std::string_view data, CampaignJob* out);

std::string EncodeResults(const scenario::Results& results);
bool DecodeResults(std::string_view data, scenario::Results* out);

// Archive = magic + per-job Results blobs (manifest order, each length+CRC framed) + a
// merged trailer with the cross-job pooled sketches and totals. `result_blobs[i]` must
// be EncodeResults output for job i; the trailer is recomputed from the blobs, so two
// archives built from equal blob sequences are byte-identical however the blobs were
// produced (serial in-process, distributed, or resumed).
// DecodeArchive returns false on corrupt or truncated input, or on a trailer that does
// not fold from the blobs, but throws CampaignError for a structurally sound archive
// whose version predates the windowed stats format (the message names the version
// found).
std::string EncodeArchive(const std::vector<std::string>& result_blobs);
bool DecodeArchive(std::string_view data, std::vector<scenario::Results>* out);

}  // namespace tbf::campaign

#endif  // TBF_CAMPAIGN_CODEC_H_
