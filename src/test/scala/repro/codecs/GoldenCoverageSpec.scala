package repro.codecs

import repro.SparkSpec
import repro.core.CodecRegistry

/** Every registered codec has its stream pinned by a golden spec, so a codec
  * cannot be added, or its stream changed, without a recorded CRC32.
  */
class GoldenCoverageSpec extends SparkSpec {
  private val pinned: Set[String] =
    GoldenStreamSpec.PinnedCodecs ++ TableCodecGoldenSpec.PinnedCodecs ++
      FrameCodecGoldenSpec.PinnedCodecs ++ BitStreamGoldenSpec.PinnedCodecs

  for (codec <- CodecRegistry.all)
    test(s"${codec.name} has a pinned stream in a golden spec") {
      assert(pinned.contains(codec.name),
             s"registered codec ${codec.name} has no pinned stream in any golden spec")
    }
}
