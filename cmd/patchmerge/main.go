// Command patchmerge implements collaborative bug correction (paper
// §6.4): it merges any number of runtime patch files — taking the maximum
// pad per allocation site and the maximum deferral per site pair — into
// one file that covers every error any user observed.
//
// Inputs may mix the compact binary format (.xtp), the fleet JSON wire
// encoding (what GET /v1/patches serves and fleetd distributes), and the
// text format; each file's format is detected from its leading bytes.
// Every input is fully decoded and validated before anything is merged or
// written: a corrupt file aborts the whole merge with a non-zero exit
// instead of producing a partial result.
//
//	patchmerge -o merged.xtp user1.xtp user2.json user3.xtp
//	patchmerge -o merged.json user1.xtp fleet-download.json
//	patchmerge -text merged.xtp            # print, don't write
package main

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"strings"

	"exterminator/internal/fleet"
	"exterminator/internal/patch"
)

func main() {
	out := flag.String("o", "", "output patch file (.json writes the fleet wire encoding, anything else the binary format; omit to just print a summary)")
	text := flag.Bool("text", false, "print the merged patches in text form")
	jsonOut := flag.Bool("json", false, "write -o output in the fleet JSON wire encoding regardless of extension")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: patchmerge [-o merged.xtp|merged.json] [-json] [-text] <patch-file>...")
		os.Exit(2)
	}

	// Phase 1: decode and validate every input. Nothing is merged until
	// all inputs are known-good, so a corrupt file can never contribute a
	// partial prefix to the output.
	type loaded struct {
		path string
		set  *patch.Set
		kind string
	}
	inputs := make([]loaded, 0, flag.NArg())
	for _, path := range flag.Args() {
		p, kind, err := loadAny(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "patchmerge: %s: %v\npatchmerge: aborting: no output written\n", path, err)
			os.Exit(1)
		}
		inputs = append(inputs, loaded{path: path, set: p, kind: kind})
	}

	// Phase 2: merge (max-combine, §6.4).
	merged := patch.New()
	for _, in := range inputs {
		merged.Merge(in.set)
		fmt.Printf("%s: %d entries (%s)\n", in.path, in.set.Len(), in.kind)
	}
	fmt.Printf("merged: %d entries (%d pads, %d front pads, %d deferrals)\n",
		merged.Len(), len(merged.Pads), len(merged.FrontPads), len(merged.Deferrals))

	if *text {
		if err := merged.EncodeText(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "patchmerge:", err)
			os.Exit(1)
		}
	}
	if *out != "" {
		if err := save(merged, *out, *jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "patchmerge:", err)
			os.Exit(1)
		}
		fmt.Println("written to", *out)
	}
}

// loadAny reads a patch file in any supported format, detected from its
// leading bytes: the binary magic, a JSON document (fleet wire encoding),
// or the line-oriented text format.
func loadAny(path string) (*patch.Set, string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) == 0 {
		// A zero-byte (or whitespace-only) file is a truncated download,
		// not an empty patch set: refuse rather than silently merge
		// nothing.
		return nil, "", fmt.Errorf("empty patch file")
	}
	switch {
	case len(data) >= 4 && binary.LittleEndian.Uint32(data) == 0x5854504d: // "XTPM"
		p, err := patch.Decode(bytes.NewReader(data))
		if err != nil {
			return nil, "", err
		}
		return p, "binary", nil
	case len(trimmed) > 0 && trimmed[0] == '{':
		p, version, err := fleet.DecodePatchSet(bytes.NewReader(trimmed))
		if err != nil {
			return nil, "", err
		}
		return p, fmt.Sprintf("fleet wire, version %d", version), nil
	default:
		p, err := patch.DecodeText(bytes.NewReader(data))
		if err != nil {
			return nil, "", err
		}
		return p, "text", nil
	}
}

// save writes the merged set: the fleet wire encoding for .json paths (or
// -json), the binary format otherwise. Merged files start a fresh version
// lineage (version 0): versions order one server's patch log, they are not
// comparable across origins.
func save(p *patch.Set, path string, forceJSON bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if forceJSON || strings.HasSuffix(path, ".json") {
		return fleet.EncodePatchSet(f, p, 0)
	}
	return p.Encode(f)
}
