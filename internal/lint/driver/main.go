package driver

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"

	"gridvine/internal/lint/analysis"
)

// Main is the entry point of the gridvine-lint multichecker. It speaks the
// `go vet -vettool` protocol: invoked with -V=full (tool identity), -flags
// (supported-flag inventory) or a single *.cfg argument (one package's vet
// configuration). It returns the process exit code: 0 clean, 1 operational
// failure, 2 findings reported.
func Main(analyzers []*analysis.Analyzer) int {
	fs := flag.NewFlagSet("gridvine-lint", flag.ExitOnError)
	versionFlag := fs.String("V", "", "print version and exit (-V=full, for the go command)")
	flagsFlag := fs.Bool("flags", false, "print analyzer flags in JSON (for the go command)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: go vet -vettool=$(command -v gridvine-lint) package...\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(fs.Output(), "  %-14s %s\n", a.Name, strings.SplitN(a.Doc, "\n", 2)[0])
		}
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 1
	}

	switch {
	case *versionFlag != "":
		if *versionFlag != "full" {
			fmt.Fprintf(os.Stderr, "unsupported flag value: -V=%s\n", *versionFlag)
			return 1
		}
		// cmd/go derives the tool's cache identity from this line; the
		// format must be "<name> version devel ... buildID=<id>", where the
		// ID changes whenever the binary does — a content hash of the
		// executable delivers exactly that.
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		data, err := os.ReadFile(exe)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("gridvine-lint version devel buildID=%x\n", sha256.Sum256(data))
		return 0

	case *flagsFlag:
		// cmd/go queries the tool's flags to tell them apart from package
		// patterns on the go vet command line.
		fmt.Println(`[]`)
		return 0
	}

	if args := fs.Args(); len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		return runUnitchecker(args[0], analyzers)
	}
	fs.Usage()
	return 1
}
