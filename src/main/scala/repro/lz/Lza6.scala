package repro.lz

import repro.core.{Scratch, WorkProfile}

/** Hash-chain LZ77 byte codec — the reproduction of SPDP's final "LZa6"
  * reducer stage (a fast LZ77 variant with a sliding window).
  *
  * Format, per sequence (LZ4-style, byte oriented):
  *   token byte  = (litLen capped at 15) << 4 | (matchLen - MinMatch capped at 15)
  *   [extension bytes of 255.. for litLen >= 15]
  *   literal bytes
  *   2-byte little-endian match offset (1..65535)   — omitted in the final
  *   [extension bytes for matchLen]                   literals-only sequence
  *
  * The decoder stops when the known output length is reached, so the final
  * sequence legitimately carries no match.
  *
  * The 2^16-entry `head` table is the thread's position table, never
  * cleared between calls ([[repro.core.Scratch.positions]]): a stale slot
  * reads as a negative position, which ends a chain as "none" does. Every
  * position 0..n-4 is linked into its hash chain in order, whether or not a
  * match later covers it, so the chain a search at `i` walks depends only
  * on the input and starts at `prev(i)`.
  * The links are therefore built in a forward pass ahead of the search, up
  * to 64 Ki positions at a time, and the search never reads `head`. `prev`
  * is a ring of `min(n, 128 Ki)` links, position `p`'s link at
  * `p & 0x1ffff`: built links reach at most 64 Ki past the searched
  * position, so a slot is overwritten only by a position more than 64 Ki
  * past any in-window candidate, and every chain walk sees the links a full
  * per-byte array would hold.
  *
  * The ring and the output are the thread's [[repro.core.Scratch.links]]
  * and [[repro.core.Scratch.coded]] arrays, kept up to 64 KiB each, which
  * covers a 4 KiB page's ring of 4 Ki links. The ring needs no clearing:
  * every slot a call reads is one it linked before.
  */
object Lza6 {
  private val MinMatch  = 4
  private val Window    = 1 << 16
  private val HashBits  = 16
  private val MaxChain  = 48
  /** Links of the `prev` ring: twice the window, as links run up to one
    * window ahead of the search.
    */
  private val Links     = Window << 1


  /** The 4 bytes at `i`, big-endian. */
  private def word(b: Array[Byte], i: Int): Int =
    ((b(i) & 0xff) << 24) | ((b(i + 1) & 0xff) << 16) | ((b(i + 2) & 0xff) << 8) | (b(i + 3) & 0xff)

  private def hash(word: Int): Int = (word * -1640531527) >>> (32 - HashBits) // Knuth multiplicative hash

  /** The sequences of one `compress` call, written to `out` in order. It
    * has room for `n + n / 255 + 16` bytes: a sequence with a match takes
    * fewer bytes than it covers plus one per 255 literals, and the last one
    * at most two more than that.
    */
  private final class Sequences(in: Array[Byte], val out: Array[Byte]) {
    /** First input byte not yet covered by a sequence. */
    var litFrom = 0
    var op      = 0 // next byte of out

    /** The literals `litFrom until litEnd`, then a match of `matchLen` bytes
      * at `offset` back, or none when `matchLen` is 0.
      */
    def emit(litEnd: Int, matchLen: Int, offset: Int): Unit = {
      val litLen = litEnd - litFrom
      val litTok = math.min(litLen, 15)
      val matTok = if (matchLen == 0) 0 else math.min(matchLen - MinMatch, 15)
      put((litTok << 4) | matTok)
      if (litLen >= 15) { var r = litLen - 15; while (r >= 255) { put(255); r -= 255 }; put(r) }
      System.arraycopy(in, litFrom, out, op, litLen); op += litLen
      if (matchLen > 0) {
        put(offset); put(offset >>> 8)
        if (matchLen - MinMatch >= 15) {
          var r = matchLen - MinMatch - 15; while (r >= 255) { put(255); r -= 255 }; put(r)
        }
      }
      litFrom = litEnd + matchLen
    }

    private def put(b: Int): Unit = { out(op) = b.toByte; op += 1 }
  }

  /** Compress `in`; also returns the approximate work profile of the search
    * loop (used for roofline / GPU branch-divergence modeling).
    *
    * Every in-window candidate on the chain counts 8 ops, but only one whose
    * first 4 bytes equal the current position's, and that also matches at
    * `bestLen`, is extended: any other shares fewer than `MinMatch` bytes, or
    * no more than `bestLen`, so it could neither be emitted nor replace the
    * best match.
    */
  def compress(in: Array[Byte]): (Array[Byte], WorkProfile) = compress(in, in.length)

  /** Compress `in(0 until n)`. */
  def compress(in: Array[Byte], n: Int): (Array[Byte], WorkProfile) = {
    val kept  = Scratch.get
    val seq   = new Sequences(in, kept.coded.atLeast(n + n / 255 + 16))
    val table = kept.positions
    val base  = table.base(n, 1 << HashBits)
    val head  = table.slots
    val prev  = kept.links.atLeast(math.min(n, Links))
    val ring  = Links - 1
    val last  = n - MinMatch // the last position with a 4-byte word
    var built = 0            // positions below `built` are linked
    var ops   = 0L

    var i = 0
    while (i <= last) {
      if (i >= built) {
        // Link the positions a match skipped, then one window ahead.
        val to = math.min(last + 1, i + Window)
        var w  = word(in, built) >>> 8 // the word rolls in one byte per position
        while (built < to) {
          w = (w << 8) | (in(built + 3) & 0xff)
          val h = hash(w); prev(built & ring) = head(h) - base; head(h) = built + base; built += 1
        }
      }
      var cand    = prev(i & ring)
      var bestLen = 0
      var bestOff = 0
      if (cand >= 0 && i - cand <= Window - 1) {
        val w     = word(in, i)
        val max   = n - i
        var chain = 0
        while (cand >= 0 && i - cand <= Window - 1 && chain < MaxChain) {
          ops += 8
          if (bestLen < max && in(cand + bestLen) == in(i + bestLen) && word(in, cand) == w) {
            val m = java.util.Arrays.mismatch(in, cand + MinMatch, cand + max, in, i + MinMatch, n)
            val l = if (m < 0) max else MinMatch + m
            if (l > bestLen) { bestLen = l; bestOff = i - cand }
          }
          cand = prev(cand & ring)
          chain += 1
        }
      }
      if (bestLen >= MinMatch) { seq.emit(i, bestLen, bestOff); i += bestLen }
      else i += 1
    }
    if (seq.litFrom < n || n == 0) seq.emit(n, 0, 0)

    val bytes = java.util.Arrays.copyOf(seq.out, seq.op)
    (bytes, WorkProfile(n.toLong * 4, bytes.length, ops + n.toLong * 6, divergent = true))
  }

  def decompress(in: Array[Byte], outLen: Int): (Array[Byte], WorkProfile) = {
    val out = new Array[Byte](outLen)
    (out, decompress(in, out, outLen))
  }

  /** Decompress `in` into `out(0 until outLen)`, which may hold stale bytes:
    * a match copies only bytes this call wrote. A sequence that runs past
    * `outLen` raises `IllegalArgumentException`.
    */
  def decompress(in: Array[Byte], out: Array[Byte], outLen: Int): WorkProfile = {
    var ip  = 0
    var op  = 0
    while (op < outLen) {
      val token  = in(ip) & 0xff; ip += 1
      var litLen = token >>> 4
      if (litLen == 15) {
        var b = 255
        while (b == 255) { b = in(ip) & 0xff; ip += 1; litLen += b }
      }
      if (litLen > outLen - op) overrun(outLen)
      System.arraycopy(in, ip, out, op, litLen); ip += litLen; op += litLen
      if (op < outLen) {
        val offset = (in(ip) & 0xff) | ((in(ip + 1) & 0xff) << 8); ip += 2
        var matchLen = (token & 0xf) + MinMatch
        if ((token & 0xf) == 15) {
          var b = 255
          while (b == 255) { b = in(ip) & 0xff; ip += 1; matchLen += b }
        }
        if (matchLen > outLen - op) overrun(outLen)
        val src = op - offset
        var k   = 0
        while (k < matchLen) { out(op + k) = out(src + k); k += 1 }
        op += matchLen
      }
    }
    WorkProfile(in.length, outLen, outLen.toLong * 2, divergent = false)
  }

  private def overrun(outLen: Int): Nothing =
    throw new IllegalArgumentException(s"LZa6 stream runs past its $outLen-byte output")
}
