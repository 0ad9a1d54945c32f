package ingest

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// FuzzParseWAL holds the one decoder of bytes read back from disk to what
// recovery relies on: parseWAL never panics, and when it does not refuse a
// file, what it returns is a prefix of what the file holds, in order — the
// checkpoint and the batches, framed again, are the file's first goodLen
// bytes — and it drops nothing a writer was acknowledged for: no intact
// record starts anywhere past goodLen.
//
// The committed corpus (testdata/fuzz/FuzzParseWAL) is testCheckpoint plus
// three batches, the last with an insert and a delete: as written (valid);
// with the final record cut at each boundary of its header and payload fields
// (torn-final-*: all replay the first two batches); with one payload bit of
// the middle batch flipped (flipped-bit: refused); and with the middle
// batch's length field inflated past the end of the file (inflated-length).
// That last one read as a torn tail — a short payload — and the intact batch
// after it was dropped silently until parseWAL began looking for an intact
// record after a failed one; it is refused now, and stays here to keep it so.
func FuzzParseWAL(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, batches, goodLen, err := parseWAL(data)
		if err != nil {
			return
		}
		written := appendRecord(append([]byte(nil), walMagic[:]...), encodeCheckpoint(cp))
		for _, b := range batches {
			written = appendRecord(written, encodeBatch(b))
		}
		if goodLen != int64(len(written)) || goodLen > int64(len(data)) || !bytes.Equal(written, data[:goodLen]) {
			t.Fatalf("checkpoint and %d batches frame to %d bytes that are not the file's first goodLen = %d", len(batches), len(written), goodLen)
		}
		for off := int(goodLen); off+8 < len(data); off++ {
			n := int(binary.LittleEndian.Uint32(data[off:]))
			if n >= 1 && n <= len(data)-off-8 && crc32.ChecksumIEEE(data[off+8:off+8+n]) == binary.LittleEndian.Uint32(data[off+4:]) {
				t.Fatalf("replay stops at %d of %d bytes, but an intact record starts at %d", goodLen, len(data), off)
			}
		}
	})
}
