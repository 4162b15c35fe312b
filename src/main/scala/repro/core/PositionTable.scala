package repro.core

/** A hash table of input positions that one thread keeps across calls and
  * never clears between them: LZa6's `head`, Chimp's value index and the LZ4
  * encoder's match table. The JVM zeroes every new array in full, and
  * undoing a call's writes costs a second hash of its input, either of which
  * costs about as much as coding a 4 KiB page.
  *
  * A slot holds `position + base`. Each call takes a base above every value
  * the table holds, so a slot an earlier call wrote reads as below the base,
  * that is as "no position" (or as whatever the owner reads a stale slot
  * as). A call that throws leaves nothing to undo either. Only when a base
  * would pass `Int.MaxValue` is the table refilled with zeros, once every
  * 2^31 positions or so.
  *
  * As with a [[KeptArray]], the owner keeps its table in its companion
  * object behind a `ThreadLocal` ([[PositionTable.perThread]]), never in a
  * codec field.
  */
final class PositionTable private[core] (size: Int, private var next: Int) {
  /** `position + base` of each hash; a slot below the current base is stale. */
  val slots = new Array[Int](size)

  /** The base of a call that stores positions `0 until span`: above every
    * value stored before, with `base + span` at most `Int.MaxValue`.
    */
  def base(span: Int): Int = {
    if (span > Int.MaxValue - next) { java.util.Arrays.fill(slots, 0); next = 1 }
    val b = next
    next += span
    b
  }
}

object PositionTable {
  /** One owner's tables of `size` slots, one per thread. */
  def perThread(size: Int): ThreadLocal[PositionTable] =
    ThreadLocal.withInitial[PositionTable](() => new PositionTable(size, 1))
}
