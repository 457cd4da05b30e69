package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// copyTree duplicates a fixture store into a temp dir so loads that queue
// repairs never touch the committed testdata.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	if err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	}); err != nil {
		t.Fatal(err)
	}
}

// TestBatchedReadDifferential holds the batched shared-buffer reader
// equivalent to one os.ReadFile per segment file — identical bytes and
// identical error text for every segment of every partition — over a clean
// store, a freshly corrupted store, and both committed corrupted fixtures.
func TestBatchedReadDifferential(t *testing.T) {
	dirs := make(map[string]string)

	clean := t.TempDir()
	saveFixture(t, clean, fixtureStore(t))
	dirs["clean"] = clean

	corrupted := t.TempDir()
	saveFixture(t, corrupted, fixtureStore(t))
	corruptMatching(t, corrupted, `"kind":"snapshot"`)
	dirs["corrupted"] = corrupted

	for _, fixture := range []string{"store_repairable", "store_quarantine"} {
		dst := t.TempDir()
		copyTree(t, filepath.Join("testdata", fixture), dst)
		dirs[fixture] = dst
	}

	for name, dir := range dirs {
		l, err := newLoader(dir, LoadOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		segs := 0
		for _, sm := range l.man.Stores {
			for pi, pm := range sm.Partitions {
				datas, errs := l.readSegments(pm.Segments)
				for i, seg := range pm.Segments {
					segs++
					want, wantErr := os.ReadFile(filepath.Join(dir, seg.File))
					if (wantErr == nil) != (errs[i] == nil) ||
						(wantErr != nil && wantErr.Error() != errs[i].Error()) {
						t.Fatalf("%s: %s/p%04d %s: per-file err %v, batched err %v",
							name, sm.Name, pi, seg.File, wantErr, errs[i])
					}
					if !bytes.Equal(want, datas[i]) {
						t.Fatalf("%s: %s/p%04d %s: bytes differ between readers", name, sm.Name, pi, seg.File)
					}
				}
			}
		}
		if segs == 0 {
			t.Fatalf("%s: no segments read", name)
		}
	}
}
