package bdrmapit

import (
	"context"
	"io"
	"os"
	"path/filepath"

	"repro/internal/ckpt"
)

// digestSources fingerprints a run's input files for checkpoint
// compatibility checking: FNV-64a folded over each source class tag,
// file base name, and full file contents, in the fixed Sources field
// order. Swapping, editing, adding, or dropping any input file changes
// the digest, so a checkpoint can never be resumed against a different
// dataset; moving the dataset directory does not (only base names are
// hashed, keeping checkpoints relocatable alongside their inputs).
//
// Unreadable files fold in a distinct marker instead of failing: the
// loader's error-budget policy decides whether the run survives a bad
// file, and the digest must describe the same file set that policy saw.
//
// A cancelled ctx cuts the reading short; the value is then meaningless,
// and so is the run that asked for it.
func digestSources(ctx context.Context, src Sources) uint64 {
	h := ckpt.NewFingerprinter()
	class := func(tag string, paths []string) {
		io.WriteString(h, tag)
		h.Write([]byte{0})
		for _, p := range paths {
			if ctx.Err() != nil {
				return
			}
			io.WriteString(h, filepath.Base(p))
			h.Write([]byte{0})
			f, err := os.Open(p)
			if err != nil {
				io.WriteString(h, "\x00unreadable\x00")
				continue
			}
			if _, err := io.Copy(h, ctxReader{ctx, f}); err != nil {
				io.WriteString(h, "\x00unreadable\x00")
			}
			f.Close()
			h.Write([]byte{0})
		}
	}
	class("traces", src.TraceroutePaths)
	class("rib", src.BGPRIBPaths)
	class("pfx2as", src.Prefix2ASPaths)
	class("rir", src.RIRDelegationPaths)
	class("ixp", src.IXPPrefixListPaths)
	class("rels", src.ASRelationshipPaths)
	class("aliases", src.AliasNodePaths)
	return h.Sum64()
}

// ctxReader reads from r until ctx is cancelled.
type ctxReader struct {
	ctx context.Context
	r   io.Reader
}

func (c ctxReader) Read(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	return c.r.Read(p)
}
