package repro.core

/** A table of values that one thread keeps across calls: pFPC's FCM/DFCM
  * pair, its only user. The JVM zeroes every new array in full, so a table
  * allocated per call costs more than coding a 4 KiB page with it; the C
  * reference codecs get lazily zeroed pages from `calloc` instead. Each call
  * must still start from the initial table. A table of positions needs none
  * of this: see [[PositionTable]], whose stale slots need no clearing. FCM
  * and DFCM slots hold predicted values, where a stale slot would change the
  * prediction.
  *
  * Between calls the table is either in its initial state or marked dirty:
  *   - a long input (at least `size / 4` items, `size` being the table's
  *     slot count) starts with a full `fill`, which also brings the table
  *     into cache as zeroing a fresh array did, and leaves the table dirty;
  *   - a short input fills only a dirty table, and afterwards undoes its own
  *     writes: the codec replays its hash over the input;
  *   - a call that throws leaves the table dirty.
  *
  * Subclasses live in a codec's companion object behind a `ThreadLocal`,
  * never in a codec field: a codec is `Serializable`, and one instance is
  * shared by every thread that calls it.
  */
abstract class ReusedTable(size: Int) {
  private var dirty = true

  /** Put every slot back to its initial value. */
  protected def fill(): Unit

  /** Call before coding `n` items. The table counts as dirty until `release`. */
  final def acquire(n: Int): this.type = {
    if (dirty || long(n)) fill()
    dirty = true
    this
  }

  /** Call after coding `n` items without error; for a short input, `reset`
    * restores the slots the input touched.
    */
  final def release(n: Int)(reset: => Unit): Unit =
    if (!long(n)) { reset; dirty = false }

  private def long(n: Int): Boolean = n >= size / 4
}
