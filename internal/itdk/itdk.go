// Package itdk reads and writes the CAIDA Internet Topology Data Kit
// (ITDK) file formats that bdrmapIT integrates with: the paper's
// released tool was incorporated into CAIDA's ITDK generation process,
// consuming .nodes files (alias sets) and producing .nodes.as files
// (router→AS assignments). This package implements the three core
// formats:
//
//	.nodes     node N<id>:  <addr> <addr> ...
//	.nodes.as  node.AS N<id> <asn> <method>
//	.links     link L<id>:  N<id>:<addr> N<id> ...
//
// Comment lines start with '#'. The assignment "method" column records
// which inference produced the mapping (bdrmapIT writes its own tag).
package itdk

import (
	"bufio"
	"fmt"
	"io"
	"net/netip"
	"sort"
	"strconv"
	"strings"

	"repro/internal/asn"
	"repro/internal/core"
)

// Node is one ITDK node: an inferred router with its interfaces.
type Node struct {
	ID    int
	Addrs []netip.Addr
}

// Assignment is one node→AS mapping with its inference method tag.
type Assignment struct {
	NodeID int
	AS     asn.ASN
	Method string
}

// Link is one ITDK link: a node-level adjacency. The first endpoint
// carries the interface address the link was observed through when
// known.
type Link struct {
	ID   int
	From Endpoint
	To   Endpoint
}

// Endpoint is one side of a link: a node, optionally pinned to a known
// interface address.
type Endpoint struct {
	NodeID int
	Addr   netip.Addr // may be invalid (unknown interface)
}

// Kit is an in-memory ITDK: nodes, AS assignments, and links.
type Kit struct {
	Nodes       []Node
	Assignments []Assignment
	Links       []Link
	// Interrupted marks a kit materialized from a cancelled run: the
	// assignments are a partial (non-converged) result. Writers append a
	// PARTIAL comment footer so downstream consumers can tell; readers
	// skip comments, so the marker never breaks round-trips.
	Interrupted bool
}

// partialFooter is the comment line appended to every file of an
// interrupted kit.
const partialFooter = "# PARTIAL: run interrupted before convergence; annotations are the last committed refinement iteration"

// FromResult converts a bdrmapIT inference result into ITDK form:
// every inferred router becomes a node, its annotation becomes the AS
// assignment (method "bdrmapit"), and every graph link becomes an ITDK
// link pinned to the observed far interface.
func FromResult(res *core.Result) *Kit {
	k := &Kit{Interrupted: res.Interrupted}
	for _, r := range res.Graph.Routers {
		id := r.ID + 1 // ITDK node ids are 1-based
		n := Node{ID: id}
		for _, i := range r.Interfaces {
			n.Addrs = append(n.Addrs, i.Addr)
		}
		k.Nodes = append(k.Nodes, n)
		if r.Annotation != asn.None {
			k.Assignments = append(k.Assignments, Assignment{
				NodeID: id, AS: r.Annotation, Method: "bdrmapit",
			})
		}
	}
	linkID := 0
	for _, r := range res.Graph.Routers {
		for _, l := range r.Links {
			linkID++
			k.Links = append(k.Links, Link{
				ID:   linkID,
				From: Endpoint{NodeID: r.ID + 1},
				To:   Endpoint{NodeID: l.To.Router.ID + 1, Addr: l.To.Addr},
			})
		}
	}
	return k
}

// The writers build each line by appending into one reused buffer;
// fmt was most of what writing a kit cost.

// appendNodeID appends "N<id>".
func appendNodeID(b []byte, id int) []byte {
	return strconv.AppendInt(append(b, 'N'), int64(id), 10)
}

// WriteNodes writes the .nodes file.
func (k *Kit) WriteNodes(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("# ITDK nodes: node N<id>:  <addr> ...\n"); err != nil {
		return err
	}
	var line []byte
	for _, n := range k.Nodes {
		line = appendNodeID(append(line[:0], "node "...), n.ID)
		line = append(line, ": "...)
		for _, a := range n.Addrs {
			line = a.AppendTo(append(line, ' '))
		}
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return k.finish(bw)
}

// finish appends the PARTIAL footer when the kit is interrupted, then
// flushes.
func (k *Kit) finish(bw *bufio.Writer) error {
	if k.Interrupted {
		if _, err := fmt.Fprintln(bw, partialFooter); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteNodesAS writes the .nodes.as file.
func (k *Kit) WriteNodesAS(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("# ITDK node AS assignments: node.AS N<id> <asn> <method>\n"); err != nil {
		return err
	}
	var line []byte
	for _, a := range k.Assignments {
		line = appendNodeID(append(line[:0], "node.AS "...), a.NodeID)
		line = strconv.AppendUint(append(line, ' '), uint64(a.AS), 10)
		line = append(append(line, ' '), a.Method...)
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return k.finish(bw)
}

// WriteLinks writes the .links file.
func (k *Kit) WriteLinks(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("# ITDK links: link L<id>:  N<id>[:<addr>] N<id>[:<addr>]\n"); err != nil {
		return err
	}
	var line []byte
	for _, l := range k.Links {
		line = strconv.AppendInt(append(line[:0], "link L"...), int64(l.ID), 10)
		line = l.From.appendTo(append(line, ":  "...))
		line = l.To.appendTo(append(line, ' '))
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return k.finish(bw)
}

// appendTo appends the endpoint as "N<id>" or "N<id>:<addr>".
func (e Endpoint) appendTo(b []byte) []byte {
	b = appendNodeID(b, e.NodeID)
	if e.Addr.IsValid() {
		b = e.Addr.AppendTo(append(b, ':'))
	}
	return b
}

func parseNodeID(tok string) (int, error) {
	if !strings.HasPrefix(tok, "N") {
		return 0, fmt.Errorf("itdk: node id %q missing N prefix", tok)
	}
	id, err := strconv.Atoi(tok[1:])
	if err != nil {
		return 0, fmt.Errorf("itdk: node id %q: %w", tok, err)
	}
	return id, nil
}

// ReadNodes parses a .nodes file.
func ReadNodes(r io.Reader) ([]Node, error) {
	var out []Node
	err := scanRecords(r, "node ", func(lineno int, rest string) error {
		idTok, addrPart, ok := strings.Cut(rest, ":")
		if !ok {
			return fmt.Errorf("itdk: line %d: missing ':'", lineno)
		}
		id, err := parseNodeID(strings.TrimSpace(idTok))
		if err != nil {
			return err
		}
		n := Node{ID: id}
		for _, f := range strings.Fields(addrPart) {
			a, err := netip.ParseAddr(f)
			if err != nil {
				return fmt.Errorf("itdk: line %d: %w", lineno, err)
			}
			n.Addrs = append(n.Addrs, a)
		}
		out = append(out, n)
		return nil
	})
	return out, err
}

// ReadNodesAS parses a .nodes.as file.
func ReadNodesAS(r io.Reader) ([]Assignment, error) {
	var out []Assignment
	err := scanRecords(r, "node.AS ", func(lineno int, rest string) error {
		fields := strings.Fields(rest)
		if len(fields) < 2 {
			return fmt.Errorf("itdk: line %d: want 'node.AS N<id> <asn> [method]'", lineno)
		}
		id, err := parseNodeID(fields[0])
		if err != nil {
			return err
		}
		a, err := asn.Parse(fields[1])
		if err != nil {
			return fmt.Errorf("itdk: line %d: %w", lineno, err)
		}
		as := Assignment{NodeID: id, AS: a}
		if len(fields) >= 3 {
			as.Method = fields[2]
		}
		out = append(out, as)
		return nil
	})
	return out, err
}

// ReadLinks parses a .links file.
func ReadLinks(r io.Reader) ([]Link, error) {
	var out []Link
	err := scanRecords(r, "link ", func(lineno int, rest string) error {
		idTok, epPart, ok := strings.Cut(rest, ":")
		if !ok {
			return fmt.Errorf("itdk: line %d: missing ':'", lineno)
		}
		if !strings.HasPrefix(strings.TrimSpace(idTok), "L") {
			return fmt.Errorf("itdk: line %d: link id %q", lineno, idTok)
		}
		id, err := strconv.Atoi(strings.TrimSpace(idTok)[1:])
		if err != nil {
			return fmt.Errorf("itdk: line %d: %w", lineno, err)
		}
		eps := strings.Fields(epPart)
		if len(eps) != 2 {
			return fmt.Errorf("itdk: line %d: want two endpoints", lineno)
		}
		l := Link{ID: id}
		for i, tok := range eps {
			ep, err := parseEndpoint(tok)
			if err != nil {
				return fmt.Errorf("itdk: line %d: %w", lineno, err)
			}
			if i == 0 {
				l.From = ep
			} else {
				l.To = ep
			}
		}
		out = append(out, l)
		return nil
	})
	return out, err
}

func parseEndpoint(tok string) (Endpoint, error) {
	idTok, addrTok, hasAddr := strings.Cut(tok, ":")
	id, err := parseNodeID(idTok)
	if err != nil {
		return Endpoint{}, err
	}
	ep := Endpoint{NodeID: id}
	if hasAddr {
		a, err := netip.ParseAddr(addrTok)
		if err != nil {
			return Endpoint{}, err
		}
		ep.Addr = a
	}
	return ep, nil
}

// scanRecords iterates the non-comment lines of an ITDK file, requiring
// each to start with the record prefix.
func scanRecords(r io.Reader, prefix string, f func(lineno int, rest string) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rest, ok := strings.CutPrefix(line, prefix)
		if !ok {
			return fmt.Errorf("itdk: line %d: expected %q record", lineno, strings.TrimSpace(prefix))
		}
		if err := f(lineno, rest); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("itdk: read: %w", err)
	}
	return nil
}

// ASCounts aggregates assignments per AS (a summary CAIDA publishes
// alongside each kit).
func (k *Kit) ASCounts() []struct {
	AS    asn.ASN
	Nodes int
} {
	counts := make(map[asn.ASN]int)
	for _, a := range k.Assignments {
		counts[a.AS]++
	}
	out := make([]struct {
		AS    asn.ASN
		Nodes int
	}, 0, len(counts))
	for a, n := range counts {
		out = append(out, struct {
			AS    asn.ASN
			Nodes int
		}{a, n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Nodes != out[j].Nodes {
			return out[i].Nodes > out[j].Nodes
		}
		return out[i].AS < out[j].AS
	})
	return out
}
