package repro.lz

import net.jpountz.lz4.LZ4Factory

/** lz4-java's fast compressor from its Unsafe Java instance, whose
  * `compress64k` [[Lz4Backend]] ports: kept as the oracle the port must
  * match byte for byte (see [[Lz4BackendSpec]]). As in lz4-java, every call
  * starts from a new, zeroed hash table.
  */
object Lz4JavaFast {
  private val compressor = LZ4Factory.unsafeInstance().fastCompressor()

  def compress(in: Array[Byte], off: Int, len: Int): Array[Byte] = {
    val out = new Array[Byte](compressor.maxCompressedLength(len))
    java.util.Arrays.copyOf(out, compressor.compress(in, off, len, out, 0, out.length))
  }
}
