package store

// FileHeader opens every journal file; external tests build inputs with it.
const FileHeader = fileHeader
