#ifndef TDE_STORAGE_SEGMENT_SEGMENT_BUILDER_H_
#define TDE_STORAGE_SEGMENT_SEGMENT_BUILDER_H_

#include <memory>

#include "src/encoding/dynamic_encoder.h"
#include "src/storage/segment/segment.h"

namespace tde {

/// One freshly-sealed segment: the encoded stream plus the zone map its
/// own EncodingStats produced.
struct SealedSegment {
  std::shared_ptr<EncodedStream> stream;
  SegmentZone zone;
  int encoding_changes = 0;
  uint64_t bytes_written = 0;
};

/// Runs `count` lanes through a fresh dynamic encoder: each segment makes
/// its own encoding choice from its own local statistics (the per-block
/// selection insight — local distributions compress better than global
/// ones).
Result<SealedSegment> EncodeSegment(const Lane* values, uint64_t count,
                                    const DynamicEncoderOptions& options);

/// Decodes `stream` fully and re-encodes it as one monolithic stream —
/// for transformations that need the whole column in one stream
/// (AlterColumnToDictionary).
Result<std::unique_ptr<EncodedStream>> MaterializeMonolithic(
    const EncodedStream& stream, DynamicEncoderOptions options);

}  // namespace tde

#endif  // TDE_STORAGE_SEGMENT_SEGMENT_BUILDER_H_
