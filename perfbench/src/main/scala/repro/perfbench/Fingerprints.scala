package repro.perfbench

import repro.core.FpBlock

/** CRC32 fingerprints of the generated datasets' bits. A mismatch against
  * the recorded value means the inputs changed (generator, Spark
  * partitioning, math library), which explains a CR change rather than
  * being one.
  */
object Fingerprints {
  def crc(block: FpBlock): Long = {
    val buf = java.nio.ByteBuffer.allocate(block.n * 8).order(java.nio.ByteOrder.LITTLE_ENDIAN)
    block.bits.foreach(b => buf.putLong(b))
    val c = new java.util.zip.CRC32
    c.update(buf.array())
    c.getValue
  }

  def key(name: String, block: FpBlock): String = s"$name@${block.n}"

  def render(datasets: Seq[(String, FpBlock)]): String =
    datasets.map { case (n, b) => f"${key(n, b)}=${crc(b)}%08x" }.mkString(" ")

  /** One line per dataset whose fingerprint differs from the recorded one. */
  def check(datasets: Seq[(String, FpBlock)]): Seq[String] =
    datasets.flatMap { case (n, b) =>
      val k = key(n, b)
      val got = crc(b)
      Recorded.get(k) match {
        case Some(want) if want == got => None
        case Some(want) => Some(f"$k crc $got%08x, recorded $want%08x")
        case None => Some(f"$k crc $got%08x, none recorded")
      }
    }

  /** Fingerprints at the benchmark's block sizes, generated with
    * [[Main.Partitions]] partitions.
    */
  val Recorded: Map[String, Long] = Map(
    "msg-bt@32768" -> 0x5a64e6bcL,
    "num-brain@32768" -> 0xb2a353ecL,
    "num-control@32768" -> 0xa4482977L,
    "rsim@16384" -> 0x523cef6dL,
    "astro-mhd@32768" -> 0xec744a8cL,
    "astro-pt@32768" -> 0x512b41d2L,
    "miranda3d@32768" -> 0x1cf0faedL,
    "turbulence@32768" -> 0x0383d991L,
    "wave@32768" -> 0x76aece4aL,
    "hurricane@32768" -> 0x80facca3L,
    "citytemp@32768" -> 0x4cec38c6L,
    "ts-gas@32768" -> 0x29bc90e9L,
    "phone-gyro@32766" -> 0x8961d6cdL,
    "wesad-chest@32768" -> 0x8fe360b2L,
    "jane-street@32640" -> 0x5b666283L,
    "nyc-taxi@32767" -> 0xf074d61aL,
    "gas-price@32766" -> 0x2a25bf9eL,
    "solar-wind@32760" -> 0xc36e068aL,
    "acs-wht@16384" -> 0x89b0352cL,
    "hdr-night@16384" -> 0x7a9f65beL,
    "hdr-palermo@16384" -> 0xccc1e025L,
    "hst-wfc3-uvis@16384" -> 0x76ef0734L,
    "hst-wfc3-ir@16384" -> 0x08c0cff3L,
    "spitzer-irac@16384" -> 0xa7b76081L,
    "g24-78-usb@32768" -> 0xa2bbab56L,
    "jws-mirimage@32768" -> 0x4e7ae5acL,
    "tpcH-order@32768" -> 0x21860cb6L,
    "tpcxBB-store@32760" -> 0xceace9c5L,
    "tpcxBB-web@32760" -> 0x9707fe48L,
    "tpcH-lineitem@32768" -> 0xb9e69a74L,
    "tpcDS-catalog@32760" -> 0xde661746L,
    "tpcDS-store@32760" -> 0x5b22c0d8L,
    "tpcDS-web@32760" -> 0x00a1867fL,
    "msg-bt@1048576" -> 0xfbce5cc2L,
  )
}
