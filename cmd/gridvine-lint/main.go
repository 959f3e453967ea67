// Command gridvine-lint runs the gridvine analyzer suite as a vet tool:
//
//	go build -o bin/gridvine-lint ./cmd/gridvine-lint
//	go vet -vettool=bin/gridvine-lint ./...       # includes test files
package main

import (
	"os"

	"gridvine/internal/lint"
	"gridvine/internal/lint/driver"
)

func main() {
	os.Exit(driver.Main(lint.Analyzers()))
}
