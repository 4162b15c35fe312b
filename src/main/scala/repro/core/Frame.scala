package repro.core

/** The chunk container of the parallel codecs (pFPC, bitshuffle, nvCOMP::LZ4,
  * ndzip), whose chunks are coded independently:
  *
  *   [count:4][len_i:4 x count][payload_i ...]
  *
  * with little-endian ints. A codec may append its own data after the last
  * payload (ndzip's raw border values). This is the only code that knows the
  * layout.
  */
object Frame {

  /** The frame of one part per item followed by `trailer` bytes, in one
    * array of exactly that size, whose last `trailer` bytes the caller
    * writes. Item `a`'s part takes at most `bound(a)` bytes, and
    * `code(a, out, off)` codes it into `out` from `off` and returns its
    * length. The parts are coded on `threads` threads ([[Parallel.map]]),
    * each straight into its own region of one array that has room for every
    * part's worst case and that this thread keeps when it fits (see
    * [[Scratch.frame]]). One copy then writes the header and the parts.
    */
  def write[A](items: IndexedSeq[A], threads: Int, trailer: Int = 0)(bound: A => Int)(
      code: (A, Array[Byte], Int) => Int): Array[Byte] = {
    val starts = items.scanLeft(0L)(_ + bound(_)) // part i's region is starts(i) until starts(i + 1)
    require(starts.last <= Int.MaxValue, s"${items.length} parts need more than ${Int.MaxValue} bytes")
    val work = Scratch.get.frame.atLeast(starts.last.toInt)
    val lens = Parallel.map(items.indices, threads)(i => code(items(i), work, starts(i).toInt))
    val out  = new Array[Byte](4 + 4 * lens.length + lens.sum + trailer)
    Words.writeWordLE(out, 0, lens.length, 4)
    var pos = 4 + 4 * lens.length
    for (i <- lens.indices) {
      Words.writeWordLE(out, 4 + 4 * i, lens(i), 4)
      System.arraycopy(work, starts(i).toInt, out, pos, lens(i))
      pos += lens(i)
    }
    out
  }

  /** Payload offsets of the frame at the start of `data`: payload `i` spans
    * `offsets(i) until offsets(i + 1)`, and `offsets(count)` is where the
    * frame ends. The count must lie in `minCount..maxCount` with all its
    * lengths inside `data`, which is checked before any length is read or
    * the offsets allocated; then every payload must end inside `data`.
    */
  def read(data: Array[Byte], minCount: Int, maxCount: Int): Array[Int] = {
    require(data.length >= 4, s"stream of ${data.length} bytes has no chunk count")
    val count = Words.readWordLE(data, 0, 4).toInt
    require(count >= minCount && count <= maxCount, s"chunk count $count outside $minCount..$maxCount")
    require(4L + 4L * count <= data.length, s"$count chunk lengths overrun a ${data.length}-byte stream")
    val offsets = new Array[Int](count + 1)
    offsets(0) = 4 + 4 * count
    var i = 0
    while (i < count) {
      val len = Words.readWordLE(data, 4 + 4 * i, 4).toInt
      require(len >= 0 && len <= data.length - offsets(i),
              s"chunk $i of $len bytes at ${offsets(i)} overruns a ${data.length}-byte stream")
      offsets(i + 1) = offsets(i) + len
      i += 1
    }
    offsets
  }

  /** `0 until len` cut into consecutive `(from, until)` ranges of `size`,
    * the last one shorter; one empty range when `len` is 0.
    */
  def fixedRanges(len: Int, size: Int): IndexedSeq[(Int, Int)] = {
    require(size >= 1, s"bad range size: $size")
    (0 until math.max(1L, (len.toLong + size - 1) / size).toInt).map { i =>
      (i * size, math.min(len.toLong, (i + 1).toLong * size).toInt)
    }
  }
}
