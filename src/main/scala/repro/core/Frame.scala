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

  /** The frame of `parts` followed by `trailer` bytes, in one array of
    * exactly that size: each part is copied once, and the caller writes its
    * own data into the last `trailer` bytes.
    */
  def write(parts: Seq[Array[Byte]], trailer: Int = 0): Array[Byte] = {
    val head = 4 + 4 * parts.length
    val out  = new Array[Byte](head + parts.foldLeft(0)(_ + _.length) + trailer)
    ByteBuf.writeWordLE(out, 0, parts.length, 4)
    val it  = parts.iterator
    var i   = 0
    var pos = head
    while (it.hasNext) {
      val p = it.next()
      ByteBuf.writeWordLE(out, 4 + 4 * i, p.length, 4)
      System.arraycopy(p, 0, out, pos, p.length)
      pos += p.length
      i += 1
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
    val count = ByteBuf.readWordLE(data, 0, 4).toInt
    require(count >= minCount && count <= maxCount, s"chunk count $count outside $minCount..$maxCount")
    require(4L + 4L * count <= data.length, s"$count chunk lengths overrun a ${data.length}-byte stream")
    val offsets = new Array[Int](count + 1)
    offsets(0) = 4 + 4 * count
    var i = 0
    while (i < count) {
      val len = ByteBuf.readWordLE(data, 4 + 4 * i, 4).toInt
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
