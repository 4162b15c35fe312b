package repro.core

import scala.reflect.ClassTag

/** A scratch array that one thread keeps across calls for one owner: LZa6's
  * `prev` ring, nv:btcomp's zigzag chunk, the LZ back ends' worst-case
  * output. As with a [[ReusedTable]], the JVM zeroes every new array in
  * full, so an array allocated per call costs more than coding a 4 KiB page
  * into it.
  *
  * The rule for every kept array, here and in a kept [[BitWriter]] or
  * [[ByteBuf]]:
  *   - it is at most [[KeptArray.MaxBytes]]; a larger request gets a new
  *     array that nothing keeps, so grid blocks and 8 MB blocks are not
  *     retained;
  *   - it has one owner, which keeps it in its companion object behind a
  *     `ThreadLocal`, never in a codec field (a codec is `Serializable` and
  *     shared by every thread that calls it);
  *   - it never leaves a call: the owner copies out what it returns.
  *
  * A kept array holds the previous call's contents. The owner either writes
  * every element before reading it or only ever copies out what it wrote.
  */
final class KeptArray[A: ClassTag](elemBytes: Int) {
  private var kept: Array[A] = new Array[A](0)

  /** An array of at least `n` elements with stale contents: this thread's
    * kept one if `n` elements fit in [[KeptArray.MaxBytes]], else a new one.
    */
  def atLeast(n: Int): Array[A] =
    if (!KeptArray.keeps(n.toLong * elemBytes)) new Array[A](n)
    else {
      if (kept.length < n) kept = new Array[A](n)
      kept
    }
}

object KeptArray {
  /** The most bytes a thread keeps in one owner's array. */
  final val MaxBytes = 64 << 10

  /** Whether a thread may keep an array of `bytes` bytes past a call. */
  def keeps(bytes: Long): Boolean = bytes <= MaxBytes

  /** One owner's arrays, one per thread. */
  def perThread[A: ClassTag](elemBytes: Int): ThreadLocal[KeptArray[A]] =
    ThreadLocal.withInitial[KeptArray[A]](() => new KeptArray[A](elemBytes))
}
