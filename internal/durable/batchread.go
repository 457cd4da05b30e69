package durable

// Batched segment reads: rather than one os.ReadFile (and one buffer) per
// segment file, a partition's chain is sized with one stat pass and read
// back-to-back into a single shared buffer; scanSegment already aliases
// frame payloads into the bytes it is handed, so the whole decode pipeline —
// CRC checks, snapshot repair, partition restore — runs zero-copy over that
// one buffer.
//
// Fidelity with a per-file os.ReadFile is part of the contract: open errors,
// short files, and read errors must surface exactly as os.ReadFile reports
// them, because fsck golden fixtures pin Finding.Detail strings. Files that
// change size between stat and read (nothing the engine itself does) fall
// back to os.ReadFile for that file.

import (
	"io"
	"os"
	"path/filepath"
)

// readSegments reads every segment file of one partition chain into one
// shared allocation, returning per-file contents and errors positionally.
func (l *loader) readSegments(segs []segManifest) ([][]byte, []error) {
	datas := make([][]byte, len(segs))
	errs := make([]error, len(segs))
	offs := make([]int64, len(segs)+1)
	for i, sm := range segs {
		var size int64
		if fi, err := os.Stat(filepath.Join(l.dir, sm.File)); err == nil {
			size = fi.Size()
		}
		// A failed stat reserves zero bytes; the open below produces the
		// authoritative (os.ReadFile-identical) error.
		offs[i+1] = offs[i] + size
	}
	buf := make([]byte, offs[len(segs)])
	for i, sm := range segs {
		path := filepath.Join(l.dir, sm.File)
		f, err := os.Open(path)
		if err != nil {
			errs[i] = err
			continue
		}
		dst := buf[offs[i]:offs[i+1]]
		n, rerr := io.ReadFull(f, dst)
		switch rerr {
		case nil:
			// Confirm EOF; a grown file re-reads through the plain path.
			var probe [1]byte
			if m, _ := f.Read(probe[:]); m > 0 {
				f.Close()
				datas[i], errs[i] = os.ReadFile(path)
				continue
			}
			datas[i] = dst
		case io.EOF, io.ErrUnexpectedEOF:
			// File shrank since stat: these are the bytes ReadFile would
			// have seen at read time.
			datas[i] = dst[:n]
		default:
			errs[i] = rerr
		}
		f.Close()
	}
	return datas, errs
}
