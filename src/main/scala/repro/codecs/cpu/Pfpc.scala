package repro.codecs.cpu

import repro.core._

/** pFPC [Burtscher & Ratanaworabhan, DCC'09] — parallel FPC.
  *
  * FPC predicts each 64-bit word with two hash-table predictors (FCM and
  * DFCM), XORs the better prediction with the actual value, and emits a
  * 4-bit code per value — 1 bit for the chosen predictor, 3 bits for the
  * count of leading zero *bytes* (a count of 4 is encoded as 3, per the
  * original) — followed by the residual's non-zero bytes. Two codes share a
  * byte. pFPC partitions the input into chunks compressed by independent
  * threads; we default to the paper's 8 pthreads.
  *
  * FPC is a double-precision algorithm; single-precision input is handled
  * the way the paper ran it — the raw byte stream is reinterpreted as 64-bit
  * words (padded with zeros to a multiple of 8 bytes).
  *
  * The FCM/DFCM tables are the coding thread's, reused across calls (see
  * [[repro.core.ReusedTable]]), and each chunk is coded straight into its
  * region of the frame ([[repro.core.Frame.write]]). The decoder takes the
  * chunk layout from the stream, so a stream decodes at any thread count.
  */
final class Pfpc(val threads: Int = 8) extends ThreadedCodec {
  import Pfpc.{dfcmHash, fcmHash, tables, zeroTouched}

  override def name: String     = "pFPC"
  override def platform: String = "CPU"
  override def withThreads(t: Int): Codec = new Pfpc(t)

  override def compress(block: FpBlock): Compressed = {
    val words = Words.pack(block)
    val bytes = Frame.write(chunkRanges(words.length, threads), threads)(r => Pfpc.worstCase(r._2 - r._1)) {
      case ((from, until), out, off) => compressChunk(words, from, until, out, off)
    }
    Compressed(bytes, WorkProfile(words.length.toLong * 8, bytes.length,
                                  words.length.toLong * 20, divergent = false))
  }

  override def decompress(data: Array[Byte], precision: Precision, extent: Seq[Long]): Decompressed = {
    val n         = extent.product.toInt
    val rawBytes  = n * precision.bytes
    val nWords    = (rawBytes + 7) / 8
    val offsets   = Frame.read(data, 1, math.max(1, nWords))
    val chunks    = chunkRanges(nWords, offsets.length - 1)
    val words     = new Array[Long](nWords)
    Parallel.map(chunks.indices.toIndexedSeq, threads) { ci =>
      val (from, until) = chunks(ci)
      decompressChunk(data, offsets(ci), words, from, until)
    }
    Decompressed(Words.unpack(words, precision, extent),
                 WorkProfile(data.length, nWords.toLong * 8, nWords.toLong * 14, divergent = false))
  }

  /** One chunk's stream, coded into `out` from `off`, which has room for
    * its worst case; the bytes written. Each code goes straight into its
    * pair's shared byte, and each residual is one big-endian 8-byte store of
    * its non-zero bytes moved to the top, of which only those bytes are kept.
    */
  private def compressChunk(words: Array[Long], from: Int, until: Int, out: Array[Byte], off: Int): Int = {
    val n     = until - from
    val t     = tables.acquire(n)
    val fcm   = t.fcm
    val dfcm  = t.dfcm
    var fHash = 0
    var dHash = 0
    var last  = 0L
    var op    = off // next byte of out
    var cp    = 0 // the current pair's code byte

    var i = from
    while (i < until) {
      val v     = words(i)
      val pF    = fcm(fHash)
      val pD    = dfcm(dHash) + last
      fcm(fHash) = v
      fHash = fcmHash(fHash, v)
      dfcm(dHash) = v - last
      dHash = dfcmHash(dHash, v - last)
      last = v

      val xF = v ^ pF
      val xD = v ^ pD
      val useF = java.lang.Long.numberOfLeadingZeros(xF) >= java.lang.Long.numberOfLeadingZeros(xD)
      val x       = if (useF) xF else xD
      val predBit = if (useF) 0 else 1
      var lzb = java.lang.Long.numberOfLeadingZeros(x) / 8
      if (lzb == 4) lzb = 3 // FPC: a count of 4 is encoded as 3 (code space is 3 bits)
      val code = (predBit << 3) | encodeLzb(lzb)
      if (((i - from) & 1) == 0) { cp = op; out(op) = (code << 4).toByte; op += 1 }
      else out(cp) = (out(cp) | code).toByte
      Words.putLongBE(out, op, x << (lzb << 3)) // x is 0 when lzb is 8, so the shift by 0 is harmless
      op += 8 - lzb
      i += 1
    }
    t.release(n)(zeroTouched(t, words, from, until))
    op - off
  }

  /** Away from the stream's last 8 bytes, each residual is one big-endian
    * 8-byte load shifted down to its non-zero bytes.
    */
  private def decompressChunk(data: Array[Byte], offset: Int,
                              words: Array[Long], from: Int, until: Int): Unit = {
    val t     = tables.acquire(until - from)
    val fcm   = t.fcm
    val dfcm  = t.dfcm
    var fHash = 0
    var dHash = 0
    var last  = 0L
    var ip    = offset
    var i     = from
    while (i < until) {
      val codeByte = data(ip) & 0xff; ip += 1
      val inPair   = math.min(2, until - i)
      var j = 0
      while (j < inPair) {
        val code = if (j == 0) codeByte >>> 4 else codeByte & 0xf
        val lzb  = decodeLzb(code & 7)
        val x =
          if (lzb == 8) 0L // a JVM shift by 64 would shift by 0
          else if (ip + 8 <= data.length) Words.longBE(data, ip) >>> (lzb << 3)
          else {
            var r = 0L
            var k = 0
            while (k < 8 - lzb) { r = (r << 8) | (data(ip + k) & 0xffL); k += 1 }
            r
          }
        ip += 8 - lzb
        val pF = fcm(fHash)
        val pD = dfcm(dHash) + last
        val v  = if ((code & 8) == 0) x ^ pF else x ^ pD
        fcm(fHash) = v
        fHash = fcmHash(fHash, v)
        dfcm(dHash) = v - last
        dHash = dfcmHash(dHash, v - last)
        last = v
        words(i + j) = v
        j += 1
      }
      i += inPair
    }
    t.release(until - from)(zeroTouched(t, words, from, until))
  }

  // FPC's 3-bit code covers leading-zero-byte counts {0,1,2,3,5,6,7,8}:
  // the rare count of 4 collapses into 3, freeing a code for 8 (all-zero).
  private def encodeLzb(lzb: Int): Int = if (lzb >= 5) lzb - 1 else lzb
  private def decodeLzb(code: Int): Int = if (code >= 4) code + 1 else code

  private def chunkRanges(n: Int, t: Int): IndexedSeq[(Int, Int)] = {
    val k = math.max(1, math.min(t, n))
    (0 until k).map { i =>
      val from  = (n.toLong * i / k).toInt
      val until = (n.toLong * (i + 1) / k).toInt
      (from, until)
    }
  }
}

object Pfpc {
  /** log2 of the FCM and DFCM table sizes. */
  private final val TableBits = 16
  private final val TableMask = (1 << TableBits) - 1

  /** FCM's and DFCM's next table slot, from the current slot and the value
    * (FCM) or the delta from the previous value (DFCM) just coded.
    */
  private def fcmHash(h: Int, v: Long): Int      = ((h << 6) ^ (v >>> 48).toInt) & TableMask
  private def dfcmHash(h: Int, delta: Long): Int = ((h << 2) ^ (delta >>> 40).toInt) & TableMask

  /** This thread's FCM/DFCM pair. */
  private def tables: ReusedTable = Scratch.get.fcmPair(1 << TableBits)

  /** Zero the slots of `t` that coding `words(from until until)` wrote, by
    * replaying the coder's hash recurrence.
    */
  private def zeroTouched(t: ReusedTable, words: Array[Long], from: Int, until: Int): Unit = {
    val fcm   = t.fcm
    val dfcm  = t.dfcm
    var fHash = 0
    var dHash = 0
    var last  = 0L
    var i     = from
    while (i < until) {
      val v = words(i)
      fcm(fHash) = 0L
      dfcm(dHash) = 0L
      fHash = fcmHash(fHash, v)
      dHash = dfcmHash(dHash, v - last)
      last = v
      i += 1
    }
  }

  /** Bytes a chunk of `n` words can fill: a code byte per pair, 8 residual
    * bytes per word, and the tail of the last 8-byte store.
    */
  private def worstCase(n: Int): Int = (n + 1) / 2 + 8 * n
}
