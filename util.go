package bdrmapit

import (
	"fmt"
	"io"
	"os"

	"repro/internal/ckpt"
	"repro/internal/traceroute"
)

// FilterTracesByVP copies the traceroutes whose vantage-point name
// satisfies keep from one archive into another (both in the same
// format, chosen by extension). It supports VP-subset studies like the
// paper's §7.3 sweep without loading the archive into memory.
func FilterTracesByVP(inPath, outPath string, keep func(vp string) bool) (kept int, err error) {
	in, err := os.Open(inPath)
	if err != nil {
		return 0, fmt.Errorf("bdrmapit: %w", err)
	}
	defer in.Close()

	err = ckpt.AtomicWrite(outPath, func(out io.Writer) error {
		var write func(*traceroute.Trace) error
		var flush func() error
		if traceroute.IsBinary(outPath) {
			w := traceroute.NewBinaryWriter(out)
			write, flush = w.Write, w.Flush
		} else {
			w := traceroute.NewJSONLWriter(out)
			write, flush = w.Write, w.Flush
		}
		visit := func(t *traceroute.Trace) error {
			if keep(t.VP) {
				kept++
				return write(t)
			}
			return nil
		}
		if _, rerr := traceroute.Read(inPath, in, visit); rerr != nil {
			return rerr
		}
		return flush()
	})
	if err != nil {
		return kept, fmt.Errorf("bdrmapit: filter: %w", err)
	}
	return kept, nil
}
